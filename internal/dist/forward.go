package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/textproto"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// maxIdlePerMember bounds the keep-alive connections the router keeps
// open to one member between requests. A closed loop needs one per
// request in flight to that member; a connection returned while the
// bound is full is closed.
const maxIdlePerMember = 4

// dialTimeout bounds connecting to a member (net/http's default
// transport uses the same).
const dialTimeout = 30 * time.Second

// maxReplayBody is the largest request body the forwarder keeps a copy
// of for its stale-connection retry. A larger body that meets a stale
// connection answers 502.
const maxReplayBody = 64 << 10

// copyBufSize sizes the pooled buffers that carry response bodies and
// chunked request bodies. Replica responses fit in one; a larger body
// takes more copy rounds.
const copyBufSize = 4 << 10

var copyBufs = sync.Pool{New: func() any {
	b := make([]byte, copyBufSize)
	return &b
}}

var replayBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// hopHeaders are the hop-by-hop headers (RFC 9110 §7.6.1): they
// describe one connection, so the forwarder drops them in both
// directions, along with any header a Connection header names.
var hopHeaders = map[string]bool{
	"Connection":          true,
	"Proxy-Connection":    true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
}

// requestSkip lists the request headers the forwarder does not copy
// as they are: the hop-by-hop ones, the framing it writes itself, an
// Expect (the body is always sent at once) and X-Forwarded-For, which
// it extends with the client's address.
var requestSkip = func() map[string]bool {
	m := map[string]bool{"Content-Length": true, "Expect": true, "X-Forwarded-For": true}
	for k := range hopHeaders {
		m[k] = true
	}
	return m
}()

// forwarder sends the router's proxied requests to one member over a
// small pool of keep-alive HTTP/1.1 connections. It writes the request
// and reads the response on the handler's own goroutine: no per-
// connection read or write loop runs beside it.
type forwarder struct {
	addr   string // host:port to dial
	host   string // Host header for a request that carries none
	prefix string // the member URL's path, prepended to every request path
	dialer net.Dialer

	mu   sync.Mutex
	idle []*backendConn // most recently used last
}

// backendConn is one connection to a member with its buffers.
type backendConn struct {
	net.Conn
	br *bufio.Reader
	bw *bufio.Writer
	// reused is set when the connection came from the idle pool, where
	// the member may have closed it.
	reused bool
}

// bodyReadError is a failure to read the client's request body: the
// client's fault, not the member's.
type bodyReadError struct{ err error }

func (e bodyReadError) Error() string { return "reading request body: " + e.err.Error() }
func (e bodyReadError) Unwrap() error { return e.err }

// cutResponseError is a member answer that broke off after its status
// went to the response writer: the writer holds a partial answer.
type cutResponseError struct{ err error }

func (e cutResponseError) Error() string { return "copying member response: " + e.err.Error() }
func (e cutResponseError) Unwrap() error { return e.err }

func newForwarder(u *url.URL) *forwarder {
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return &forwarder{
		addr:   addr,
		host:   u.Host,
		prefix: strings.TrimSuffix(u.EscapedPath(), "/"),
		dialer: net.Dialer{Timeout: dialTimeout},
	}
}

// forward sends r to the member and copies the member's answer to w.
// body, when non-nil, is the request body already read in full;
// otherwise r.Body streams with r.ContentLength. A reused connection
// that fails before any response byte arrives was most likely closed
// by the member while idle, so the request goes once more over a fresh
// dial. A non-nil error means nothing was written to w, except a
// cutResponseError: the answer broke off after its status was written.
// An exchange cut short by the end of r's context reports the
// context's error.
func (f *forwarder) forward(w http.ResponseWriter, r *http.Request, body []byte) error {
	sb := sentBody{buf: body}
	n := int64(len(body))
	if body == nil {
		n = r.ContentLength
		if n != 0 {
			bp := replayBufs.Get().(*[]byte)
			sb.src, sb.buf = r.Body, (*bp)[:0]
			defer func() {
				if cap(sb.buf) <= maxReplayBody {
					*bp = sb.buf[:0]
					replayBufs.Put(bp)
				}
			}()
		}
	}
	ctx := r.Context()
	for retry := false; ; retry = true {
		bc, err := f.get(ctx, retry)
		if err != nil {
			return err
		}
		// A cancelled request closes the connection, which ends any
		// read or write blocked on it; the connection is not pooled.
		stop := context.AfterFunc(ctx, func() { bc.Close() })
		resp, early, err := f.exchange(bc, r, &sb, n)
		if err != nil {
			stop()
			bc.Close()
			if early && bc.reused && !retry && ctx.Err() == nil && sb.rewind() {
				f.closeIdle() // idle longer than bc, so as likely stale
				continue
			}
			if ctx.Err() != nil {
				// Closing bc at the context's end left a bare "use of
				// closed network connection"; name the cause instead.
				return ctx.Err()
			}
			return err
		}
		return f.copyResponse(w, bc, resp, stop)
	}
}

// get takes the most recently used idle connection, or dials one when
// the pool is empty or fresh is set.
func (f *forwarder) get(ctx context.Context, fresh bool) (*backendConn, error) {
	if !fresh {
		f.mu.Lock()
		if n := len(f.idle); n > 0 {
			bc := f.idle[n-1]
			f.idle[n-1] = nil
			f.idle = f.idle[:n-1]
			f.mu.Unlock()
			bc.reused = true
			return bc, nil
		}
		f.mu.Unlock()
	}
	c, err := f.dialer.DialContext(ctx, "tcp", f.addr)
	if err != nil {
		return nil, err
	}
	return &backendConn{Conn: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}, nil
}

// put returns a connection to the idle pool, or closes it when the
// pool holds maxIdlePerMember already.
func (f *forwarder) put(bc *backendConn) {
	f.mu.Lock()
	if len(f.idle) < maxIdlePerMember {
		f.idle = append(f.idle, bc)
		f.mu.Unlock()
		return
	}
	f.mu.Unlock()
	bc.Close()
}

// closeIdle closes every pooled connection.
func (f *forwarder) closeIdle() {
	f.mu.Lock()
	idle := f.idle
	f.idle = nil
	f.mu.Unlock()
	for _, bc := range idle {
		bc.Close()
	}
}

// exchange writes r to bc and reads the response head. early reports
// that the member failed before any response byte arrived — the one
// failure a retry may follow.
func (f *forwarder) exchange(bc *backendConn, r *http.Request, body *sentBody, n int64) (resp *http.Response, early bool, err error) {
	bw := bc.bw
	bw.WriteString(r.Method)
	bw.WriteByte(' ')
	bw.WriteString(f.prefix)
	bw.WriteString(r.URL.EscapedPath())
	if r.URL.RawQuery != "" {
		bw.WriteByte('?')
		bw.WriteString(r.URL.RawQuery)
	}
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	if r.Host != "" {
		bw.WriteString(r.Host)
	} else {
		bw.WriteString(f.host)
	}
	bw.WriteString("\r\n")
	r.Header.WriteSubset(bw, withConnectionTokens(requestSkip, r.Header))
	if ip, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		bw.WriteString("X-Forwarded-For: ")
		for _, v := range r.Header["X-Forwarded-For"] {
			bw.WriteString(v)
			bw.WriteString(", ")
		}
		bw.WriteString(ip)
		bw.WriteString("\r\n")
	}
	switch {
	case n > 0 || n == 0 && (r.Method == http.MethodPost || r.Method == http.MethodPut || r.Method == http.MethodPatch):
		bw.WriteString("Content-Length: ")
		bw.WriteString(strconv.FormatInt(n, 10))
		bw.WriteString("\r\n\r\n")
		err = body.writeTo(bw, n)
	case n < 0:
		bw.WriteString("Transfer-Encoding: chunked\r\n\r\n")
		err = body.writeTo(bw, n)
	default:
		bw.WriteString("\r\n")
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		var be bodyReadError
		return nil, !errors.As(err, &be), err
	}
	if _, err := bc.br.Peek(1); err != nil {
		return nil, true, err
	}
	resp, err = http.ReadResponse(bc.br, r)
	return resp, false, err
}

// copyResponse copies the member's status, end-to-end headers and
// body to w, streaming a body of unknown length as it arrives, and
// pools bc when the exchange left it reusable. A body that breaks off
// returns a cutResponseError.
func (f *forwarder) copyResponse(w http.ResponseWriter, bc *backendConn, resp *http.Response, stop func() bool) error {
	h := w.Header()
	skip := withConnectionTokens(hopHeaders, resp.Header)
	for k, vv := range resp.Header {
		if skip[k] {
			continue
		}
		if h[k] == nil {
			h[k] = vv
		} else {
			h[k] = append(h[k], vv...)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if err := copyBody(w, resp.Body, resp.ContentLength < 0); err != nil {
		stop()
		bc.Close()
		return cutResponseError{err}
	}
	resp.Body.Close()
	// Bytes past the response are not an answer to anything: a
	// connection holding some is not reused.
	if stop() && !resp.Close && bc.br.Buffered() == 0 {
		f.put(bc)
	} else {
		bc.Close()
	}
	return nil
}

// copyBody copies src to w, flushing after every write when flush is
// set.
func copyBody(w http.ResponseWriter, src io.Reader, flush bool) error {
	var rc *http.ResponseController
	if flush {
		rc = http.NewResponseController(w)
	}
	bp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bp)
	for {
		n, err := src.Read(*bp)
		if n > 0 {
			if _, werr := w.Write((*bp)[:n]); werr != nil {
				return werr
			}
			if rc != nil {
				rc.Flush()
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// withConnectionTokens returns skip, extended by the header names h's
// Connection header lists (a copy is made only when there are any).
func withConnectionTokens(skip map[string]bool, h http.Header) map[string]bool {
	conn := h["Connection"]
	if len(conn) == 0 {
		return skip
	}
	out := make(map[string]bool, len(skip)+len(conn))
	for k := range skip {
		out[k] = true
	}
	for _, v := range conn {
		for _, tok := range strings.Split(v, ",") {
			if tok = strings.TrimSpace(tok); tok != "" {
				out[textproto.CanonicalMIMEHeaderKey(tok)] = true
			}
		}
	}
	return out
}

// sentBody is a request body as the forwarder sends it. It keeps the
// bytes it has passed on, up to maxReplayBody, so that the
// stale-connection retry can send them again.
type sentBody struct {
	src  io.Reader // the unread rest of the body; nil when buf holds it all
	buf  []byte    // body bytes read so far
	off  int       // next byte of buf to send
	lost bool      // more than maxReplayBody bytes went out: no replay
}

func (b *sentBody) read(p []byte) (int, error) {
	if b.off < len(b.buf) {
		n := copy(p, b.buf[b.off:])
		b.off += n
		return n, nil
	}
	if b.src == nil {
		return 0, io.EOF
	}
	n, err := b.src.Read(p)
	if n > 0 && !b.lost {
		if len(b.buf)+n > maxReplayBody {
			b.lost = true
		} else {
			b.buf = append(b.buf, p[:n]...)
			b.off = len(b.buf)
		}
	}
	if err != nil && err != io.EOF {
		err = bodyReadError{err}
	}
	return n, err
}

// rewind makes the body send from its start again, and reports whether
// it can.
func (b *sentBody) rewind() bool {
	b.off = 0
	return !b.lost
}

// writeTo writes the body to bw: n bytes, or the whole body in the
// chunked encoding when n < 0.
func (b *sentBody) writeTo(bw *bufio.Writer, n int64) error {
	bp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bp)
	for n != 0 {
		buf := *bp
		if n > 0 && n < int64(len(buf)) {
			buf = buf[:n]
		}
		k, err := b.read(buf)
		if k > 0 && n < 0 {
			fmt.Fprintf(bw, "%x\r\n%s\r\n", k, buf[:k])
		} else if k > 0 {
			bw.Write(buf[:k])
			n -= int64(k)
		}
		if err == io.EOF && n < 0 {
			_, err = bw.WriteString("0\r\n\r\n")
			return err
		}
		if err != nil && n != 0 {
			if err == io.EOF {
				err = bodyReadError{io.ErrUnexpectedEOF}
			}
			return err
		}
	}
	return nil
}
