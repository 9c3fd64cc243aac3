package serve

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/qfile"
	"joinopt/internal/wire"
	"joinopt/internal/workload"
)

// hostileNames exercise every escaping rule of both codecs, and the
// empty name's R<id> fallback.
var hostileNames = []string{
	"", "plain", "<script>&amp;", `"quoted"`, `back\slash`, "\b\f\n\r\t", "\x00\x01\x1f\x7f",
	"bad \xff\xfe utf8", "trunc \xe2\x8b", " line para", "café ⋈ 日本", "emoji 🙂",
}

func bytesDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	return fmt.Sprintf("at byte %d\n got: %q\nwant: %q", i, got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}

var updateResponses = flag.Bool("update-responses", false, "rewrite testdata/responses from the current handler")

// TestResponsesByteIdentical pins the handler's bytes end to end: the
// same queries, over JSON and over wire, as a miss and as a hit, must
// answer exactly what testdata/responses holds. The responses were
// recorded from the handler that built an OptimizeResponse and encoded
// it with encoding/json or a wire.Response field copy.
func TestResponsesByteIdentical(t *testing.T) {
	named := workload.Default().Generate(8, rand.New(rand.NewSource(5)))
	for i := range named.Relations {
		named.Relations[i].Name = hostileNames[(i+1)%len(hostileNames)]
	}
	split := &catalog.Query{
		Relations: []catalog.Relation{
			{Name: "a", Cardinality: 10}, {Cardinality: 20},
			{Name: "c", Cardinality: 1000}, {Name: "d", Cardinality: 2000},
		},
		Predicates: []catalog.Predicate{
			{Left: 0, Right: 1, Selectivity: 0.1},
			{Left: 2, Right: 3, Selectivity: 0.001},
		},
	}
	queries := map[string]*catalog.Query{
		"smoke20": workload.Default().Generate(20, rand.New(rand.NewSource(42))),
		"names8":  named,
		"split4":  split,
	}
	for name, q := range queries {
		for _, codec := range []string{"json", "wire"} {
			s := New(Config{TCoeff: 1})
			for _, phase := range []string{"miss", "hit"} {
				file := filepath.Join("testdata", "responses", name+"."+phase+"."+codec)
				rec := postCodec(t, s, q, codec)
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", file, rec.Code, rec.Body)
				}
				if *updateResponses {
					if err := os.WriteFile(file, rec.Body.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("%s: response differs:\n%s", file, bytesDiff(rec.Body.Bytes(), want))
				}
			}
		}
	}
}

// postCodec posts q to s's handler in codec ("json" or "wire"), asking
// for a response in the same codec.
func postCodec(t *testing.T, s *Server, q *catalog.Query, codec string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if codec == "wire" {
		req = httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(wire.EncodeQuery(q)))
		req.Header.Set("Content-Type", wire.ContentType)
		req.Header.Set("Accept", wire.ContentType)
	} else {
		body, err := qfile.Append(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		req = httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body))
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}
