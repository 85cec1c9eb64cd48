package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"banditware/internal/loadgen"
)

// apiClient speaks the serving API's recommend and observe routes with
// at most conns connections, building request bodies in reused buffers.
type apiClient struct {
	hc      *http.Client
	base    string
	recURL  []string // per stream
	obsURL  string
	ctxKeys [][]byte // `"name":` per feature
}

func newAPIClient(base string, tr *loadgen.Trace, conns int) *apiClient {
	c := &apiClient{
		hc: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}},
		base:   base,
		obsURL: base + "/v1/observe",
	}
	for _, st := range tr.Streams {
		c.recURL = append(c.recURL, base+"/v1/streams/"+st.Name+"/recommend")
	}
	for _, n := range tr.FeatureNames {
		k, _ := json.Marshal(n)
		c.ctxKeys = append(c.ctxKeys, append(k, ':'))
	}
	return c
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// exchange is one worker's reusable request and response buffers.
type exchange struct {
	body, resp bytes.Buffer
}

// ticketWire is the part of the ticket response the driver uses.
type ticketWire struct {
	ID       string `json:"id"`
	Arm      int    `json:"arm"`
	Explored bool   `json:"explored"`
}

// statusError is a non-2xx response.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

func (c *apiClient) recommend(x *exchange, stream int, feats []float64, req uint64, parent uint32) (ticketWire, error) {
	b := &x.body
	b.Reset()
	b.WriteString(`{"context":{`)
	var num [32]byte
	for j, k := range c.ctxKeys {
		if j > 0 {
			b.WriteByte(',')
		}
		b.Write(k)
		b.Write(strconv.AppendFloat(num[:0], feats[j], 'g', -1, 64))
	}
	b.WriteString(`}}`)
	var t ticketWire
	if err := c.do(x, http.MethodPost, c.recURL[stream], req, parent); err != nil {
		return t, err
	}
	if err := json.Unmarshal(x.resp.Bytes(), &t); err != nil {
		return t, fmt.Errorf("decode ticket: %w", err)
	}
	if t.ID == "" {
		return t, fmt.Errorf("ticket without id: %s", x.resp.Bytes())
	}
	return t, nil
}

func (c *apiClient) observe(x *exchange, ticket string, runtime float64, req uint64, parent uint32) error {
	b := &x.body
	b.Reset()
	b.WriteString(`{"ticket":`)
	var num [32]byte
	b.Write(strconv.AppendQuote(num[:0], ticket))
	b.WriteString(`,"runtime":`)
	b.Write(strconv.AppendFloat(num[:0], runtime, 'g', -1, 64))
	b.WriteByte('}')
	return c.do(x, http.MethodPost, c.obsURL, req, parent)
}

// do sends x.body (for a POST) and reads the whole response into x.resp.
// A non-zero parent attaches the trace context.
func (c *apiClient) do(x *exchange, method, url string, req uint64, parent uint32) error {
	var body io.Reader
	if method == http.MethodPost {
		body = bytes.NewReader(x.body.Bytes())
	}
	r, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	if body != nil {
		r.Header.Set("Content-Type", "application/json")
	}
	if parent != 0 {
		setTraceHeaders(r.Header, req, parent)
	}
	resp, err := c.hc.Do(r)
	if err != nil {
		return err
	}
	x.resp.Reset()
	_, err = x.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return &statusError{resp.StatusCode, string(bytes.TrimSpace(x.resp.Bytes()))}
	}
	return nil
}

// createStreams creates the trace's streams through the serving API
// (through the router on the fleet, which broadcasts them).
func createStreams(base string, tr *loadgen.Trace) error {
	t := loadgen.NewHTTP(base)
	defer t.Close()
	return t.Setup(tr)
}
