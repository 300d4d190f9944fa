package faults

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"smart/internal/topology"
)

func testCube(t testing.TB) topology.Topology {
	t.Helper()
	cube, err := topology.NewCube(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return cube
}

func TestParseExplicitSpec(t *testing.T) {
	top := testCube(t)
	s, err := Parse("link:0:0@100-200,router:3@50", top, 1)
	if err != nil {
		t.Fatal(err)
	}
	// router:3@50 is open-ended (never revives), so three events total.
	if len(s) != 3 {
		t.Fatalf("got %d events, want 3: %v", len(s), s)
	}
	// Canonical order: ascending cycle, so router down at 50 leads.
	if s[0].Kind != RouterDown || s[0].Cycle != 50 || s[0].Router != 3 {
		t.Errorf("first event = %+v, want router-down 3@50", s[0])
	}
	if s[1].Kind != LinkDown || s[1].Cycle != 100 {
		t.Errorf("second event = %+v, want link-down @100", s[1])
	}
	if s[2].Kind != LinkUp || s[2].Cycle != 200 {
		t.Errorf("last event = %+v, want link-up @200", s[2])
	}
}

func TestParseCanonicalizesLinkEnd(t *testing.T) {
	top := testCube(t)
	// Name the same physical link from both ends; the schedules must be
	// identical because link events are rewritten to the canonical
	// (smaller) endpoint.
	ports := top.RouterPorts(0)
	var peer, peerPort int
	for p, port := range ports {
		if port.Kind == topology.PortRouter {
			peer, peerPort = port.Peer, port.PeerPort
			if peer > 0 {
				a, err := Parse(fmt.Sprintf("link:0:%d@10", p), top, 1)
				if err != nil {
					t.Fatal(err)
				}
				b, err := Parse(fmt.Sprintf("link:%d:%d@10", peer, peerPort), top, 1)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("both ends of one link parse differently:\n%v\n%v", a, b)
				}
				return
			}
		}
	}
	t.Fatal("router 0 has no router-router link to a larger peer")
}

func TestCanonicalRoundTrip(t *testing.T) {
	top := testCube(t)
	for _, spec := range []string{
		"link:0:0@5",
		"link:0:0@5-9,router:2@100-200",
		"rand-links:4@1000-2000",
		"rand-routers:3@10,rand-links:2@20-30",
	} {
		s, err := Parse(spec, top, 42)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		// Canonical is fully explicit, so it round-trips under any seed.
		again, err := Parse(s.Canonical(), top, 7)
		if err != nil {
			t.Fatalf("Parse(Canonical(%q)) = %q: %v", spec, s.Canonical(), err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Errorf("spec %q: canonical %q does not reproduce the schedule\n%v\n%v",
				spec, s.Canonical(), s, again)
		}
	}
}

func TestRandExpansionIsSeedDeterministic(t *testing.T) {
	top := testCube(t)
	a, err := Parse("rand-links:5@100", top, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("rand-links:5@100", top, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("identical (spec, topology, seed) expanded differently")
	}
	c, err := Parse("rand-links:5@100", top, 100)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds picked the identical link set (possible but wildly unlikely for 5 of 32)")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	top := testCube(t)
	s, err := Parse("rand-links:3@10-20,router:1@5", top, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), `{"schema":"smart/faults/v1"}`) {
		t.Errorf("encoded stream lacks the schema header: %q", buf.String()[:40])
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Errorf("decode(encode(s)) != s\n%v\n%v", s, got)
	}
}

// garbageSchedules are schedule files no writer produces, keyed by what
// is wrong with each: Decode must refuse every one.
var garbageSchedules = map[string]string{
	"empty":                "",
	"no header":            `{"cycle":1,"kind":"link-down","router":0,"port":0}`,
	"wrong schema":         `{"schema":"smart/run/v3"}`,
	"unknown field":        "{\"schema\":\"smart/faults/v1\"}\n{\"cycle\":1,\"kind\":\"link-down\",\"router\":0,\"port\":0,\"flux\":9}",
	"unknown kind":         "{\"schema\":\"smart/faults/v1\"}\n{\"cycle\":1,\"kind\":\"link-sideways\",\"router\":0,\"port\":0}",
	"header trailing data": `{"schema":"smart/faults/v1"} junk`,
	"event trailing value": "{\"schema\":\"smart/faults/v1\"}\n{\"cycle\":1,\"kind\":\"link-down\",\"router\":0,\"port\":0} {\"x\":1}",
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for name, text := range garbageSchedules {
		if _, err := Decode(strings.NewReader(text)); err == nil {
			t.Errorf("%s: Decode accepted %q", name, text)
		}
	}
}

func TestParseErrors(t *testing.T) {
	top := testCube(t)
	for _, spec := range []string{
		"link:0:0",              // no @cycle
		"link:0@5",              // wrong arity
		"router:0:0@5",          // wrong arity
		"warp:0@5",              // unknown kind
		"link:0:0@x",            // bad cycle
		"link:0:0@20-10",        // interval runs backwards
		"link:0:0@20-20",        // empty interval
		"link:0:0@5,",           // trailing empty clause
		"rand-links:0@5",        // zero targets
		"link:0:-1@5",           // negative index
		"router:999@5",          // router out of range
		"link:0:99@5",           // port out of range
		"rand-links:9999@5",     // more links than the topology has
		"rand-routers:9999@5",   // more routers than the topology has
		"link:0:0@5,link:0:0@5", // same target twice without an up between
	} {
		if _, err := Parse(spec, top, 1); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
	// CheckSpec is the topology-free prefix of the same validation.
	if err := CheckSpec("warp:0@5"); err == nil {
		t.Error("CheckSpec accepted an unknown clause kind")
	}
	if err := CheckSpec(""); err != nil {
		t.Errorf("CheckSpec(\"\") = %v, want nil", err)
	}
}

func TestValidateAlternation(t *testing.T) {
	top := testCube(t)
	cr, cp, err := canonicalLink(top, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Schedule{
		"up without down":   {{Cycle: 5, Kind: LinkUp, Router: cr, Port: cp}},
		"down twice":        {{Cycle: 5, Kind: LinkDown, Router: cr, Port: cp}, {Cycle: 9, Kind: LinkDown, Router: cr, Port: cp}},
		"up at same cycle":  {{Cycle: 5, Kind: RouterDown, Router: 1}, {Cycle: 5, Kind: RouterUp, Router: 1}},
		"negative cycle":    {{Cycle: -1, Kind: RouterDown, Router: 1}},
		"non-canonical end": {{Cycle: 5, Kind: LinkDown, Router: top.Routers() - 1, Port: lastRouterPort(top)}},
	} {
		if err := s.Validate(top); err == nil {
			t.Errorf("%s: Validate accepted %v", name, s)
		}
	}
}

// lastRouterPort returns a port of the last router whose canonical end
// is elsewhere (any router-router port of the highest-index router).
func lastRouterPort(top topology.Topology) int {
	r := top.Routers() - 1
	for p, port := range top.RouterPorts(r) {
		if port.Kind == topology.PortRouter && (port.Peer < r || (port.Peer == r && port.PeerPort < p)) {
			return p
		}
	}
	return 0
}

func TestSeedFrom(t *testing.T) {
	if SeedFrom("a") == SeedFrom("b") {
		t.Error("distinct fingerprints hashed to the same seed")
	}
	if SeedFrom("x") != SeedFrom("x") {
		t.Error("SeedFrom is not deterministic")
	}
}

func TestResolveFlag(t *testing.T) {
	top := testCube(t)
	// A non-file argument is syntax-checked and passed through verbatim.
	spec, err := ResolveFlag("rand-links:2@50")
	if err != nil || spec != "rand-links:2@50" {
		t.Fatalf("ResolveFlag(spec) = %q, %v", spec, err)
	}
	if _, err := ResolveFlag("warp:0@5"); err == nil {
		t.Error("ResolveFlag accepted a bad spec")
	}
	if spec, err := ResolveFlag(""); err != nil || spec != "" {
		t.Errorf("ResolveFlag(\"\") = %q, %v", spec, err)
	}

	// A file argument decodes and canonicalizes, so the config carries
	// the contents, not the path.
	s, err := Parse("link:0:0@10-20,router:2@5", top, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/sched.jsonl"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ResolveFlag(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != s.Canonical() {
		t.Errorf("ResolveFlag(file) = %q, want canonical %q", got, s.Canonical())
	}

	// A header-only file holds no events and is rejected loudly rather
	// than silently running fault-free.
	empty := t.TempDir() + "/empty.jsonl"
	if err := os.WriteFile(empty, []byte(`{"schema":"smart/faults/v1"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ResolveFlag(empty); err == nil {
		t.Error("ResolveFlag accepted an event-free schedule file")
	}
}

// fakeTarget records controller mask writes in call order.
type fakeTarget struct {
	calls []string
}

func (f *fakeTarget) SetLinkDown(r, p int, down bool) {
	f.calls = append(f.calls, fmtCall("link", r, p, down))
}

func (f *fakeTarget) SetRouterDown(r int, down bool) {
	f.calls = append(f.calls, fmtCall("router", r, -1, down))
}

func fmtCall(kind string, r, p int, down bool) string {
	s := kind + ":" + strconv.Itoa(r)
	if p >= 0 {
		s += ":" + strconv.Itoa(p)
	}
	if down {
		return s + ":down"
	}
	return s + ":up"
}

func TestControllerReplay(t *testing.T) {
	top := testCube(t)
	s, err := Parse("link:0:0@10-20,router:2@15", top, 1)
	if err != nil {
		t.Fatal(err)
	}
	cr, cp, _ := canonicalLink(top, 0, 0)
	tgt := &fakeTarget{}
	c := NewController(s, tgt)
	c.tick(9)
	if len(tgt.calls) != 0 || c.Applied() != 0 {
		t.Fatalf("events fired before their cycle: %v", tgt.calls)
	}
	c.tick(10)
	if want := []string{fmtCall("link", cr, cp, true)}; !reflect.DeepEqual(tgt.calls, want) {
		t.Fatalf("cycle 10: calls = %v, want %v", tgt.calls, want)
	}
	c.tick(10) // re-ticking the same cycle must not replay
	if len(tgt.calls) != 1 {
		t.Fatalf("event replayed on repeated tick: %v", tgt.calls)
	}
	c.tick(25) // a coarse jump applies every due event, in order
	want := []string{
		fmtCall("link", cr, cp, true),
		fmtCall("router", 2, -1, true),
		fmtCall("link", cr, cp, false),
	}
	if !reflect.DeepEqual(tgt.calls, want) {
		t.Fatalf("cycle 25: calls = %v, want %v", tgt.calls, want)
	}
	if c.Applied() != 3 {
		t.Errorf("Applied() = %d, want 3", c.Applied())
	}
}
