package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
)

// PromText accumulates a response body in the Prometheus text
// exposition format (version 0.0.4), the one encoder behind every
// /metrics endpoint of the tree.
type PromText struct{ b strings.Builder }

// Family writes the # HELP and # TYPE lines that open a metric family;
// kind is "counter" or "gauge".
func (p *PromText) Family(name, help, kind string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// Sample writes one sample line. labels is a rendered label set
// (`{k="v",...}`) or empty; v prints with %v, so integers print exactly
// and floats in %g form.
func (p *PromText) Sample(name, labels string, v any) {
	fmt.Fprintf(&p.b, "%s%s %v\n", name, labels, v)
}

// Metric writes a family holding a single unlabeled sample.
func (p *PromText) Metric(name, help, kind string, v any) {
	p.Family(name, help, kind)
	p.Sample(name, "", v)
}

// Serve writes the body to w under the exposition Content-Type.
func (p *PromText) Serve(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, p.b.String())
}
