package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
)

// replyReader parses the server's RESP replies off a byte stream without
// allocating: returned slices alias its buffer and are valid until the
// next read.
type replyReader struct {
	r      io.Reader
	buf    []byte
	lo, hi int
}

func newReplyReader(r io.Reader) *replyReader {
	return &replyReader{r: r, buf: make([]byte, 64<<10)}
}

var errReplyTooLong = errors.New("benchmark: reply longer than the reader's buffer")

// fill reads more bytes, compacting first when the tail is full.
func (rr *replyReader) fill() error {
	if rr.lo == rr.hi {
		rr.lo, rr.hi = 0, 0
	}
	if rr.hi == len(rr.buf) {
		if rr.lo == 0 {
			return errReplyTooLong
		}
		rr.hi = copy(rr.buf, rr.buf[rr.lo:rr.hi])
		rr.lo = 0
	}
	n, err := rr.r.Read(rr.buf[rr.hi:])
	rr.hi += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// line returns the next CRLF-terminated line without its terminator.
func (rr *replyReader) line() ([]byte, error) {
	for {
		if i := bytes.Index(rr.buf[rr.lo:rr.hi], crlf); i >= 0 {
			l := rr.buf[rr.lo : rr.lo+i]
			rr.lo += i + 2
			return l, nil
		}
		if err := rr.fill(); err != nil {
			return nil, err
		}
	}
}

var crlf = []byte("\r\n")

// bytes returns the next n bytes and consumes the CRLF after them.
func (rr *replyReader) bytes(n int) ([]byte, error) {
	for rr.hi-rr.lo < n+2 {
		if err := rr.fill(); err != nil {
			return nil, err
		}
	}
	b := rr.buf[rr.lo : rr.lo+n]
	rr.lo += n + 2
	return b, nil
}

// reply is one parsed top-level RESP element. For an array ('*') n is the
// element count and the elements follow as further replies; for a bulk
// ('$') n is -1 for nil and data holds the payload otherwise.
type reply struct {
	kind byte
	n    int64
	data []byte
}

var errMalformedReply = errors.New("benchmark: malformed reply")

func (rr *replyReader) next() (reply, error) {
	l, err := rr.line()
	if err != nil {
		return reply{}, err
	}
	if len(l) == 0 {
		return reply{}, errMalformedReply
	}
	rp := reply{kind: l[0], data: l[1:]}
	switch rp.kind {
	case '+', '-':
	case ':', '$', '*':
		n, ok := parseInt(l[1:])
		if !ok {
			return reply{}, errMalformedReply
		}
		rp.n, rp.data = n, nil
		if rp.kind == '$' && n >= 0 {
			if rp.data, err = rr.bytes(int(n)); err != nil {
				return reply{}, err
			}
		}
	default:
		return reply{}, errMalformedReply
	}
	return rp, nil
}

func parseInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

func (rp reply) isSimple(s string) bool { return rp.kind == '+' && string(rp.data) == s }

// verifier checks every reply against the op that caused it. It trusts
// nothing about the responder beyond RESP framing, which it needs to stay
// in step; verify_test.go plants faults to prove each check can fire.
type verifier struct {
	rr *replyReader
}

// check reads the replies to one request and returns how many of its ops
// failed verification. A non-nil error means the stream is unusable
// (deadline passed, connection closed, framing broken): every op not yet
// verified is counted as failed and the caller must abandon the
// connection.
func (v *verifier) check(ops []op) (failed int, err error) {
	for i := range ops {
		ok, err := v.checkOp(&ops[i])
		if err != nil {
			return failed + len(ops) - i, err
		}
		if !ok {
			failed++
		}
	}
	return failed, nil
}

func (v *verifier) checkOp(o *op) (bool, error) {
	switch o.kind {
	case opGet:
		rp, err := v.rr.next()
		if err != nil {
			return false, err
		}
		idx, ok := valueIndex(rp.data)
		return rp.kind == '$' && rp.n >= 0 && ok && idx == o.a, nil
	case opSet:
		rp, err := v.rr.next()
		if err != nil {
			return false, err
		}
		return rp.isSimple("OK"), nil
	case opTransfer:
		elems, ok, err := v.group(2)
		if err != nil {
			return false, err
		}
		for i := 0; i < elems; i++ {
			rp, err := v.rr.next()
			if err != nil {
				return false, err
			}
			ok = ok && rp.kind == ':'
		}
		return ok && elems == 2, nil
	case opSnapshot:
		elems, ok, err := v.group(accounts)
		if err != nil {
			return false, err
		}
		var sum int64
		for i := 0; i < elems; i++ {
			rp, err := v.rr.next()
			if err != nil {
				return false, err
			}
			n, isInt := parseInt(rp.data)
			ok = ok && rp.kind == '$' && rp.n >= 0 && isInt
			sum += n
		}
		return ok && elems == accounts && sum == conservedSum, nil
	}
	return false, fmt.Errorf("benchmark: unknown op kind %d", o.kind)
}

// group consumes the replies framing a MULTI group of queued commands —
// +OK, one +QUEUED per command, then EXEC's array header — and returns
// the header's element count; the elements themselves are left for the
// caller, who must read them whatever ok says to stay in step. ok is
// false when any framing reply was not the expected one (an EXEC that
// answered with an error has no elements).
func (v *verifier) group(queued int) (elems int, ok bool, err error) {
	rp, err := v.rr.next()
	if err != nil {
		return 0, false, err
	}
	ok = rp.isSimple("OK")
	for i := 0; i < queued; i++ {
		if rp, err = v.rr.next(); err != nil {
			return 0, false, err
		}
		ok = ok && rp.isSimple("QUEUED")
	}
	if rp, err = v.rr.next(); err != nil {
		return 0, false, err
	}
	if rp.kind != '*' || rp.n < 0 {
		return 0, false, nil
	}
	return int(rp.n), ok, nil
}
