package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/workload"
)

// fuzzSeeds provides valid frames so the fuzzer starts from structured
// corpus instead of pure noise.
func fuzzSeeds(f *testing.F, kind byte) {
	f.Helper()
	rng := rand.New(rand.NewSource(59))
	spec := workload.Default()
	for _, n := range []int{2, 5, 20} {
		q := spec.Generate(n, rng)
		switch kind {
		case KindQuery:
			f.Add(EncodeQuery(q))
			c := testCanonical(q, rng)
			f.Add(EncodeCanonicalQuery(c.Fingerprint, c.Order, q))
		case KindResponse:
			f.Add(EncodeResponse(&Response{
				Fingerprint: "00ff",
				CacheHit:    n%2 == 0,
				BudgetUsed:  int64(n) * 1000,
				TotalCost:   float64(n) * 1.5e6,
				Order:       []int{0, 1},
				Names:       []string{"a", "b"},
				Tier:        2,
				Explain:     "plan",
			}))
		}
	}
	f.Add([]byte(magic))
	f.Add([]byte{})
}

// FuzzWireDecode: arbitrary bytes through both decoders and the
// canonical frame splitter. The only acceptable outcomes are a clean
// error or a successful parse — never a panic, never an unbounded
// allocation (the count guards cap every slice at the payload size).
func FuzzWireDecode(f *testing.F) {
	fuzzSeeds(f, KindQuery)
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, rest, err := SplitCanonical(data); err == nil {
			if 4*cap(c.Order) > len(data)-len(rest) {
				t.Fatalf("an order of %d relations allocated from a %d-byte frame", cap(c.Order), len(data)-len(rest))
			}
			seen := make([]bool, len(c.Order))
			for _, v := range c.Order {
				if v < 0 || int(v) >= len(seen) || seen[v] {
					t.Fatalf("split order %v is not a permutation", c.Order)
				}
				seen[v] = true
			}
			_, _ = DecodeQuery(rest)
		}
		if q, err := DecodeQuery(data); err == nil {
			// Whatever decoded must satisfy the same invariants the JSON
			// boundary enforces.
			if verr := q.Validate(); verr != nil {
				t.Fatalf("decoded query fails validation: %v", verr)
			}
		}
		_, _ = DecodeResponse(data)
	})
}

// FuzzWireRoundTrip: appending a canonical frame the splitter split
// reproduces its bytes, and any input both decoders accept must be a
// fixed point of decode∘encode — re-encoding the decoded value and
// decoding again reproduces identical bytes and an equal value. This
// is the property that makes the binary cache-hit path safe: two
// encodings of the same (normalized) query cannot diverge.
func FuzzWireRoundTrip(f *testing.F) {
	fuzzSeeds(f, KindQuery)
	fuzzSeeds(f, KindResponse)
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, rest, err := SplitCanonical(data); err == nil && len(rest) < len(data) {
			if !bytes.Equal(AppendCanonical(nil, c.Fingerprint, c.Order), data[:len(data)-len(rest)]) {
				t.Fatal("appending a split canonical frame does not reproduce its bytes")
			}
		}
		if q, err := DecodeQuery(data); err == nil {
			enc := EncodeQuery(q)
			q2, err := DecodeQuery(enc)
			if err != nil {
				t.Fatalf("re-decode of re-encoded query failed: %v", err)
			}
			if !bytes.Equal(enc, EncodeQuery(q2)) {
				t.Fatal("query encode is not a fixed point")
			}
			if !queriesEqual(q, q2) {
				t.Fatalf("query value drifted through round trip:\n%+v\n%+v", q, q2)
			}
		}
		if r, err := DecodeResponse(data); err == nil {
			enc := EncodeResponse(r)
			r2, err := DecodeResponse(enc)
			if err != nil {
				t.Fatalf("re-decode of re-encoded response failed: %v", err)
			}
			if !bytes.Equal(enc, EncodeResponse(r2)) {
				t.Fatal("response encode is not a fixed point")
			}
		}
	})
}

// queriesEqual compares by re-encoding: float equality must be bitwise
// (NaN payloads and negative zeros travel through the codec verbatim),
// which reflect.DeepEqual gets wrong for NaN.
func queriesEqual(a, b *catalog.Query) bool {
	return bytes.Equal(EncodeQuery(a), EncodeQuery(b))
}
