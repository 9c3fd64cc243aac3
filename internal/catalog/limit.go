package catalog

import (
	"errors"
	"io"
)

// ErrTooLarge reports that an input stream exceeded the size cap the
// caller imposed on it. The serve boundary maps it to HTTP 413;
// qfile.ReadLimit returns it wrapped, so test with errors.Is.
var ErrTooLarge = errors.New("catalog: input exceeds size limit")

// CapReader wraps r so that reading more than max bytes fails with
// ErrTooLarge instead of silently truncating (the io.LimitReader
// behaviour, which would let a parser accept the valid prefix of an
// oversized — possibly hostile — body). A non-positive max means no
// cap.
func CapReader(r io.Reader, max int64) io.Reader {
	if max <= 0 {
		return r
	}
	return &capReader{r: r, remaining: max}
}

type capReader struct {
	r         io.Reader
	remaining int64
	breached  bool
}

func (c *capReader) Read(p []byte) (int, error) {
	if c.breached {
		return 0, ErrTooLarge
	}
	if c.remaining <= 0 {
		// The cap is exactly consumed. Probe the underlying stream for
		// one more byte so an exactly-cap-sized input reads cleanly to
		// EOF while a cap-plus-tail input fails with ErrTooLarge.
		var one [1]byte
		n, err := c.r.Read(one[:])
		if n > 0 {
			c.breached = true
			return 0, ErrTooLarge
		}
		return 0, err
	}
	if int64(len(p)) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.r.Read(p)
	c.remaining -= int64(n)
	return n, err
}
