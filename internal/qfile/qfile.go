// Package qfile reads and writes queries as JSON, the interchange
// format of the cmd/ljqgen and cmd/ljqopt tools.
//
// The format is a direct rendering of the catalog types:
//
//	{
//	  "relations": [
//	    {"name": "orders", "cardinality": 100000,
//	     "selections": [{"selectivity": 0.1}]},
//	    ...
//	  ],
//	  "predicates": [
//	    {"left": 0, "right": 1,
//	     "leftDistinct": 500, "rightDistinct": 500,
//	     "selectivity": 0}          // 0 = derive from distinct counts
//	  ]
//	}
//
// The query codec is one pass over this fixed schema, without
// reflection: Decode builds the catalog.Query straight from the bytes
// and Append writes the bytes encoding/json's indented encoder would.
// encoding/json remains the reference both are tested against.
package qfile

import (
	"fmt"
	"io"
	"os"

	"joinopt/internal/catalog"
)

// Write serializes the query as indented JSON (see Append).
func Write(w io.Writer, q *catalog.Query) error {
	b, err := Append(nil, q)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadLimit parses a query from an untrusted reader, refusing inputs
// larger than max bytes with an error satisfying errors.Is(err,
// catalog.ErrTooLarge). A non-positive max means no cap.
func ReadLimit(r io.Reader, max int64) (*catalog.Query, error) {
	data, err := io.ReadAll(catalog.CapReader(r, max))
	if err != nil {
		return nil, fmt.Errorf("qfile: %w", err)
	}
	return Decode(data)
}

// Read parses and validates a query (see Decode).
func Read(r io.Reader) (*catalog.Query, error) {
	return ReadLimit(r, 0)
}

// WriteFile writes the query to a file path ("-" = stdout).
func WriteFile(path string, q *catalog.Query) error {
	if path == "-" {
		return Write(os.Stdout, q)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := Write(f, q); err != nil {
		return err
	}
	return f.Close()
}

// ReadFile reads a query from a file path ("-" = stdin).
func ReadFile(path string) (*catalog.Query, error) {
	if path == "-" {
		return Read(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
