package qfile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"joinopt/internal/catalog"
)

// Decode parses, validates and normalizes a query from one JSON
// document. It scans the bytes once and builds the catalog.Query
// directly; the result does not reference data.
//
// Decode accepts what encoding/json accepts for the schema, with the
// same query out: keys match exactly first and then case-insensitively
// (bytes.EqualFold), unknown keys are rejected at every level, null
// leaves a field zero or nil, integer fields reject fractions,
// exponents and overflow, float fields reject out-of-range values,
// and strings with escapes or non-ASCII bytes are unquoted by
// encoding/json itself. Two inputs encoding/json accepts are refused:
// bytes other than whitespace after the object (a second query would
// otherwise be dropped silently) and a key repeated within one object
// (encoding/json merges the two values field by field).
func Decode(data []byte) (*catalog.Query, error) {
	d := decoderPool.Get().(*decoder)
	d.reset(data)
	d.document()
	var q *catalog.Query
	err := d.err
	if err == nil {
		q = d.query()
	}
	d.data = nil
	if len(data) <= decoderPoolMaxInput {
		decoderPool.Put(d)
	}
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q.Normalize()
	return q, nil
}

// decoderPool recycles the decoder's scratch records, so a steady
// stream of similar queries decodes into exact-size allocations only.
var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

// decoderPoolMaxInput bounds the scratch a pooled decoder keeps: the
// records grow with the input, so one huge body must not pin its
// scratch forever.
const decoderPoolMaxInput = 1 << 16

// The schema's keys per object, in field-index order.
var (
	queryKeys     = []string{"relations", "predicates"}
	relationKeys  = []string{"name", "cardinality", "selections"}
	selectionKeys = []string{"selectivity"}
	predicateKeys = []string{"left", "right", "leftDistinct", "rightDistinct", "selectivity", "leftHist", "rightHist"}
	histogramKeys = []string{"domain", "counts"}
)

// The scratch records hold no pointers: nested values are ranges into
// the decoder's flat lanes, materialized by query once the scan is
// done.
type relRecord struct {
	card           int64
	nameLo, nameHi int // d.names[nameLo:nameHi]
	selLo, selHi   int // d.sels[selLo:selHi]
}

type predRecord struct {
	left, right   int64
	leftDistinct  float64
	rightDistinct float64
	selectivity   float64
	leftHist      int // 1 + index into d.hists; 0 = none
	rightHist     int
}

type histRecord struct {
	domain           int64
	countLo, countHi int // d.counts[countLo:countHi]
}

type decoder struct {
	data []byte
	pos  int
	err  error

	rels   []relRecord
	preds  []predRecord
	hists  []histRecord
	sels   []catalog.Selection
	counts []float64
	names  []byte
}

func (d *decoder) reset(data []byte) {
	d.data, d.pos, d.err = data, 0, nil
	d.rels = d.rels[:0]
	d.preds = d.preds[:0]
	d.hists = d.hists[:0]
	d.sels = d.sels[:0]
	d.counts = d.counts[:0]
	d.names = d.names[:0]
}

// query materializes the scanned records with one allocation per lane
// in use. Nested slices share their lane's backing array, capped so an
// append by the caller copies instead of overwriting a neighbour.
func (d *decoder) query() *catalog.Query {
	q := &catalog.Query{}
	if len(d.rels) > 0 {
		names := string(d.names)
		var sels []catalog.Selection
		if len(d.sels) > 0 {
			sels = append([]catalog.Selection(nil), d.sels...)
		}
		q.Relations = make([]catalog.Relation, len(d.rels))
		for i, r := range d.rels {
			rel := &q.Relations[i]
			rel.Name = names[r.nameLo:r.nameHi]
			rel.Cardinality = r.card
			if r.selLo < r.selHi {
				rel.Selections = sels[r.selLo:r.selHi:r.selHi]
			}
		}
	}
	if len(d.preds) > 0 {
		var hists []catalog.Histogram
		if len(d.hists) > 0 {
			var counts []float64
			if len(d.counts) > 0 {
				counts = append([]float64(nil), d.counts...)
			}
			hists = make([]catalog.Histogram, len(d.hists))
			for i, h := range d.hists {
				hists[i].Domain = h.domain
				if h.countLo < h.countHi {
					hists[i].Counts = counts[h.countLo:h.countHi:h.countHi]
				}
			}
		}
		hist := func(ref int) *catalog.Histogram {
			if ref == 0 {
				return nil
			}
			return &hists[ref-1]
		}
		q.Predicates = make([]catalog.Predicate, len(d.preds))
		for i, p := range d.preds {
			q.Predicates[i] = catalog.Predicate{
				Left: catalog.RelID(p.left), Right: catalog.RelID(p.right),
				LeftDistinct: p.leftDistinct, RightDistinct: p.rightDistinct,
				Selectivity: p.selectivity,
				LeftHist:    hist(p.leftHist),
				RightHist:   hist(p.rightHist),
			}
		}
	}
	return q
}

// document scans the one query object (or null) the input holds.
func (d *decoder) document() {
	if d.begin('{') {
		var seen uint32
		for i := 0; d.more('}', i); i++ {
			switch d.key(queryKeys, &seen) {
			case 0:
				if d.begin('[') {
					for j := 0; d.more(']', j); j++ {
						d.relation()
					}
				}
			case 1:
				if d.begin('[') {
					for j := 0; d.more(']', j); j++ {
						d.predicate()
					}
				}
			}
		}
	}
	d.ws()
	if d.err == nil && d.pos < len(d.data) {
		d.fail("data after the query object")
	}
}

func (d *decoder) relation() {
	lo := len(d.names)
	d.rels = append(d.rels, relRecord{nameLo: lo, nameHi: lo, selLo: len(d.sels), selHi: len(d.sels)})
	if !d.begin('{') {
		return
	}
	r := &d.rels[len(d.rels)-1]
	var seen uint32
	for i := 0; d.more('}', i); i++ {
		switch d.key(relationKeys, &seen) {
		case 0:
			d.name()
			r.nameHi = len(d.names)
		case 1:
			r.card = d.integer()
		case 2:
			if d.begin('[') {
				for j := 0; d.more(']', j); j++ {
					d.selection()
				}
			}
			r.selHi = len(d.sels)
		}
	}
}

func (d *decoder) selection() {
	d.sels = append(d.sels, catalog.Selection{})
	if !d.begin('{') {
		return
	}
	s := &d.sels[len(d.sels)-1]
	var seen uint32
	for i := 0; d.more('}', i); i++ {
		if d.key(selectionKeys, &seen) == 0 {
			s.Selectivity = d.float()
		}
	}
}

func (d *decoder) predicate() {
	d.preds = append(d.preds, predRecord{})
	if !d.begin('{') {
		return
	}
	p := &d.preds[len(d.preds)-1]
	var seen uint32
	for i := 0; d.more('}', i); i++ {
		switch d.key(predicateKeys, &seen) {
		case 0:
			p.left = d.index()
		case 1:
			p.right = d.index()
		case 2:
			p.leftDistinct = d.float()
		case 3:
			p.rightDistinct = d.float()
		case 4:
			p.selectivity = d.float()
		case 5:
			p.leftHist = d.histogram()
		case 6:
			p.rightHist = d.histogram()
		}
	}
}

// histogram scans a histogram object and returns its reference (see
// predRecord), or 0 for null.
func (d *decoder) histogram() int {
	if !d.begin('{') {
		return 0
	}
	d.hists = append(d.hists, histRecord{countLo: len(d.counts), countHi: len(d.counts)})
	ref := len(d.hists)
	h := &d.hists[ref-1]
	var seen uint32
	for i := 0; d.more('}', i); i++ {
		switch d.key(histogramKeys, &seen) {
		case 0:
			h.domain = d.integer()
		case 1:
			if d.begin('[') {
				for j := 0; d.more(']', j); j++ {
					d.counts = append(d.counts, d.float())
				}
			}
			h.countHi = len(d.counts)
		}
	}
	return ref
}

// --- tokens -------------------------------------------------------------

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("qfile: offset %d: %s", d.pos, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) ws() {
	b, i := d.data, d.pos
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	d.pos = i
}

// null consumes a null literal at the cursor, if there is one.
func (d *decoder) null() bool {
	if len(d.data)-d.pos >= 4 && string(d.data[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

// begin consumes the opening delimiter of an object or array. It
// reports false for a null in its place (the value stays zero or nil)
// and after an error.
func (d *decoder) begin(open byte) bool {
	d.ws()
	if d.err != nil || d.null() {
		return false
	}
	if d.pos >= len(d.data) || d.data[d.pos] != open {
		d.expected(string(open) + " or null")
		return false
	}
	d.pos++
	return true
}

// more reports whether member i of the object or array being scanned
// follows: it consumes the ',' before every member but the first, or
// the closing delimiter after the last.
func (d *decoder) more(close byte, i int) bool {
	d.ws()
	if d.err != nil {
		return false
	}
	if d.pos < len(d.data) {
		switch c := d.data[d.pos]; {
		case c == close:
			d.pos++
			return false
		case i == 0:
			return true
		case c == ',':
			d.pos++
			d.ws()
			return true
		}
	}
	d.expected("',' or '" + string(close) + "'")
	return false
}

func (d *decoder) expected(what string) {
	if d.pos >= len(d.data) {
		d.fail("unexpected end of input, expected %s", what)
		return
	}
	d.fail("unexpected %q, expected %s", d.data[d.pos], what)
}

// key scans an object key and the ':' after it and returns the index
// of the field in keys it names, or -1 after an error. A key naming
// no field, or one already seen in this object, is an error.
func (d *decoder) key(keys []string, seen *uint32) int {
	d.ws()
	k := d.text()
	if d.err != nil {
		return -1
	}
	f := -1
	for i, name := range keys {
		if string(k) == name {
			f = i
			break
		}
	}
	if f < 0 {
		for i, name := range keys {
			if bytes.EqualFold(k, []byte(name)) {
				f = i
				break
			}
		}
	}
	switch {
	case f < 0:
		d.fail("unknown field %q", k)
		return -1
	case *seen&(1<<f) != 0:
		d.fail("repeated field %q", keys[f])
		return -1
	}
	*seen |= 1 << f
	d.ws()
	if d.pos >= len(d.data) || d.data[d.pos] != ':' {
		d.expected("':'")
		return -1
	}
	d.pos++
	return f
}

// text scans a string token and returns its contents. Printable ASCII
// without escapes is returned as a slice of the input; any other token
// is unquoted by encoding/json, so escape handling and the U+FFFD
// replacement of invalid UTF-8 are exactly encoding/json's.
func (d *decoder) text() []byte {
	b, start := d.data, d.pos
	if start >= len(b) || b[start] != '"' {
		d.expected("string")
		return nil
	}
	plain := true
	for i := start + 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			d.pos = i + 1
			if plain {
				return b[start+1 : i]
			}
			var s string
			if err := json.Unmarshal(b[start:d.pos], &s); err != nil {
				d.pos = start
				d.fail("bad string: %v", err)
				return nil
			}
			return []byte(s)
		case c == '\\':
			plain = false
			i++ // an escaped quote does not end the token
		case c < 0x20:
			d.pos = i
			d.fail("control character in string")
			return nil
		case c >= 0x80:
			plain = false
		}
	}
	d.pos = len(b)
	d.fail("unterminated string")
	return nil
}

// name scans a relation name (or null) into the names lane.
func (d *decoder) name() {
	d.ws()
	if d.err != nil || d.null() {
		return
	}
	d.names = append(d.names, d.text()...)
}

// number scans a token matching the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and reports whether
// it is an integer (no fraction, no exponent). It returns nil for a
// null (the field stays zero) and after an error.
func (d *decoder) number() (tok []byte, integer bool) {
	d.ws()
	if d.err != nil || d.null() {
		return nil, false
	}
	b, i := d.data, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = digits(b, i); i < 0 {
		d.expected("number or null")
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		if i = digits(b, i+1); i < 0 {
			d.expected("number")
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = digits(b, i); i < 0 {
			d.expected("number")
			return nil, false
		}
	}
	tok = b[d.pos:i]
	d.pos = i
	return tok, integer
}

// digits returns the index after the run of digits at b[i:], or -1 if
// there is none.
func digits(b []byte, i int) int {
	n := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if i == n {
		return -1
	}
	return i
}

// integer scans an int64 field.
func (d *decoder) integer() int64 {
	tok, integer := d.number()
	if tok == nil {
		return 0
	}
	if !integer {
		d.fail("number %s is not an integer", tok)
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		d.fail("number %s overflows int64", tok)
		return 0
	}
	return v
}

// index scans a relation index, an int field in the schema.
func (d *decoder) index() int64 {
	v := d.integer()
	if int64(int(v)) != v {
		d.fail("number %d overflows int", v)
	}
	return v
}

// float scans a float64 field.
func (d *decoder) float() float64 {
	tok, _ := d.number()
	if tok == nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.fail("number %s is out of float64 range", tok)
		return 0
	}
	return v
}
