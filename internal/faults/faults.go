// Package faults injects deterministic link and router failures into a
// running fabric. A fault schedule is a cycle-keyed list of down/up
// events — written explicitly, expanded from a seeded random clause, or
// decoded from a JSONL file (schema smart/faults/v1) — validated against
// the topology and applied by a Controller registered as the first
// engine stage of a cycle, before traffic generation and the fabric
// stages, so every shard sees the same masks for the whole cycle.
//
// Determinism contract: random clauses (rand-links, rand-routers) are
// expanded with an RNG seeded from the config fingerprint (SeedFrom), so
// the concrete failure set is a pure function of the run's content
// address; a resumed or re-sharded run replays the identical schedule.
package faults

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"smart/internal/obs"
	"smart/internal/sim"
	"smart/internal/topology"
)

// Schema identifies the JSONL fault-schedule format: one header line
// {"schema":"smart/faults/v1"} followed by one Event object per line.
const Schema = "smart/faults/v1"

// Kind is the fault event type.
type Kind uint8

const (
	// LinkDown masks one bidirectional router-router link.
	LinkDown Kind = iota
	// LinkUp unmasks a previously downed link.
	LinkUp
	// RouterDown freezes a router: all incident links, its crossbar and
	// routing logic, and the attached node's NIC.
	RouterDown
	// RouterUp revives a previously downed router.
	RouterUp
)

var kindNames = [...]string{"link-down", "link-up", "router-down", "router-up"}

// String returns the JSON wire name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) {
	if int(k) >= len(kindNames) {
		return nil, fmt.Errorf("faults: unknown kind %d", uint8(k))
	}
	return json.Marshal(kindNames[k])
}

// UnmarshalJSON decodes a wire name back into a kind.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range kindNames {
		if name == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("faults: unknown kind %q", s)
}

// isLink reports whether the kind targets a link (vs a router).
func (k Kind) isLink() bool { return k == LinkDown || k == LinkUp }

// isDown reports whether the kind is the failing half of its pair.
func (k Kind) isDown() bool { return k == LinkDown || k == RouterDown }

// Event is one scheduled fault transition. Link events identify the
// link by its canonical endpoint (the lexicographically smaller
// (router, port) of the two directions). Router events leave Port 0.
type Event struct {
	Cycle  int64 `json:"cycle"`
	Kind   Kind  `json:"kind"`
	Router int   `json:"router"`
	Port   int   `json:"port"`
}

// Schedule is a validated, deterministically ordered fault event list:
// ascending cycle, links before routers at equal cycles, then router and
// port index. Per target, events alternate down/up starting with down at
// strictly increasing cycles.
type Schedule []Event

// target is the map key grouping events that act on the same element.
type target struct {
	link         bool
	router, port int
}

func (e Event) target() target {
	t := target{link: e.Kind.isLink(), router: e.Router}
	if t.link {
		t.port = e.Port
	}
	return t
}

// sortEvents orders events canonically: cycle, link-before-router,
// router, port, down-before-up (the last is unreachable for valid
// schedules, which never put two events for one target on one cycle).
func sortEvents(ev []Event) {
	sort.Slice(ev, func(i, j int) bool {
		a, b := ev[i], ev[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Kind.isLink() != b.Kind.isLink() {
			return a.Kind.isLink()
		}
		if a.Router != b.Router {
			return a.Router < b.Router
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		return a.Kind < b.Kind
	})
}

// canonicalLink rewrites a link event to name the link by its smaller
// (router, port) endpoint, so the two directions of one physical link
// share a target key.
func canonicalLink(top topology.Topology, r, p int) (int, int, error) {
	if r < 0 || r >= top.Routers() {
		return 0, 0, fmt.Errorf("faults: router %d out of range [0,%d)", r, top.Routers())
	}
	ports := top.RouterPorts(r)
	if p < 0 || p >= len(ports) {
		return 0, 0, fmt.Errorf("faults: router %d port %d out of range [0,%d)", r, p, len(ports))
	}
	port := ports[p]
	if port.Kind != topology.PortRouter {
		return 0, 0, fmt.Errorf("faults: router %d port %d is not a router-router link", r, p)
	}
	if port.Peer < r || (port.Peer == r && port.PeerPort < p) {
		return port.Peer, port.PeerPort, nil
	}
	return r, p, nil
}

// Validate checks the schedule against a topology: every link event
// names a real router-router link, every router event a real router,
// cycles are non-negative, and per target the events alternate
// down → up → down at strictly increasing cycles. The schedule must
// already be in canonical order (Parse and Decode guarantee it).
func (s Schedule) Validate(top topology.Topology) error {
	last := make(map[target]Event)
	for i, ev := range s {
		if ev.Cycle < 0 {
			return fmt.Errorf("faults: event %d has negative cycle %d", i, ev.Cycle)
		}
		if ev.Kind.isLink() {
			cr, cp, err := canonicalLink(top, ev.Router, ev.Port)
			if err != nil {
				return err
			}
			if cr != ev.Router || cp != ev.Port {
				return fmt.Errorf("faults: event %d names link %d:%d by its non-canonical end (want %d:%d)", i, ev.Router, ev.Port, cr, cp)
			}
		} else {
			if ev.Router < 0 || ev.Router >= top.Routers() {
				return fmt.Errorf("faults: event %d router %d out of range [0,%d)", i, ev.Router, top.Routers())
			}
		}
		t := ev.target()
		prev, seen := last[t]
		if !seen && !ev.Kind.isDown() {
			return fmt.Errorf("faults: event %d (%s %d:%d@%d) raises a target that is not down", i, ev.Kind, ev.Router, ev.Port, ev.Cycle)
		}
		if seen {
			if prev.Kind.isDown() == ev.Kind.isDown() {
				return fmt.Errorf("faults: event %d repeats %s for router %d port %d", i, ev.Kind, ev.Router, ev.Port)
			}
			if ev.Cycle <= prev.Cycle {
				return fmt.Errorf("faults: event %d for router %d port %d does not advance past cycle %d", i, ev.Router, ev.Port, prev.Cycle)
			}
		}
		last[t] = ev
	}
	return nil
}

// interval is one down(-up) pair for Canonical rendering.
type interval struct {
	t        target
	from, to int64 // to < 0 means never restored
}

// Canonical renders the schedule as an explicit spec string —
// comma-separated link:R:P@C[-C2] and router:R@C[-C2] clauses in
// schedule order — suitable for embedding in a config (and hence its
// fingerprint). Parse(s.Canonical(), top, seed) reproduces s exactly.
func (s Schedule) Canonical() string {
	open := make(map[target]int)
	var ivs []interval
	for _, ev := range s {
		t := ev.target()
		if ev.Kind.isDown() {
			open[t] = len(ivs)
			ivs = append(ivs, interval{t: t, from: ev.Cycle, to: -1})
		} else if i, ok := open[t]; ok {
			ivs[i].to = ev.Cycle
			delete(open, t)
		}
	}
	var b strings.Builder
	for i, iv := range ivs {
		if i > 0 {
			b.WriteByte(',')
		}
		if iv.t.link {
			fmt.Fprintf(&b, "link:%d:%d@%d", iv.t.router, iv.t.port, iv.from)
		} else {
			fmt.Fprintf(&b, "router:%d@%d", iv.t.router, iv.from)
		}
		if iv.to >= 0 {
			fmt.Fprintf(&b, "-%d", iv.to)
		}
	}
	return b.String()
}

// SeedFrom derives the schedule-expansion seed from a config
// fingerprint, so random clauses are a deterministic function of the
// run's content address.
func SeedFrom(fingerprint string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, fingerprint)
	return h.Sum64()
}

// clause is one parsed spec clause before expansion.
type clause struct {
	kind       string // "link", "router", "rand-links", "rand-routers"
	a, b       int    // link: router, port; router: router; rand-*: count
	from, to   int64  // to < 0 when open-ended
	hasRestore bool
}

// parseInterval parses C or C-C2.
func parseInterval(s string) (int64, int64, bool, error) {
	from, rest, dash := strings.Cut(s, "-")
	f, err := strconv.ParseInt(from, 10, 64)
	if err != nil || f < 0 {
		return 0, 0, false, fmt.Errorf("faults: bad cycle %q", from)
	}
	if !dash {
		return f, -1, false, nil
	}
	t, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || t <= f {
		return 0, 0, false, fmt.Errorf("faults: bad interval end %q (must be a cycle after %d)", rest, f)
	}
	return f, t, true, nil
}

// parseSpec splits and syntax-checks a spec string without a topology.
func parseSpec(spec string) ([]clause, error) {
	var out []clause
	for _, raw := range strings.Split(spec, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			return nil, fmt.Errorf("faults: empty clause in spec %q", spec)
		}
		head, at, ok := strings.Cut(raw, "@")
		if !ok {
			return nil, fmt.Errorf("faults: clause %q lacks @cycle", raw)
		}
		var c clause
		var err error
		c.from, c.to, c.hasRestore, err = parseInterval(at)
		if err != nil {
			return nil, err
		}
		parts := strings.Split(head, ":")
		c.kind = parts[0]
		argc := map[string]int{"link": 2, "router": 1, "rand-links": 1, "rand-routers": 1}[c.kind]
		if argc == 0 {
			return nil, fmt.Errorf("faults: unknown clause kind %q in %q", c.kind, raw)
		}
		if len(parts)-1 != argc {
			return nil, fmt.Errorf("faults: clause %q wants %d argument(s)", raw, argc)
		}
		if c.a, err = strconv.Atoi(parts[1]); err != nil || c.a < 0 {
			return nil, fmt.Errorf("faults: bad index %q in clause %q", parts[1], raw)
		}
		if argc == 2 {
			if c.b, err = strconv.Atoi(parts[2]); err != nil || c.b < 0 {
				return nil, fmt.Errorf("faults: bad index %q in clause %q", parts[2], raw)
			}
		}
		if strings.HasPrefix(c.kind, "rand-") && c.a == 0 {
			return nil, fmt.Errorf("faults: clause %q selects zero targets", raw)
		}
		out = append(out, c)
	}
	return out, nil
}

// CheckSpec syntax-checks a spec string without a topology (used by
// flag parsing before the config is fully resolved).
func CheckSpec(spec string) error {
	if spec == "" {
		return nil
	}
	_, err := parseSpec(spec)
	return err
}

// links enumerates the canonical (router, port) end of every
// router-router link in index order.
func links(top topology.Topology) [][2]int {
	var out [][2]int
	for r := 0; r < top.Routers(); r++ {
		for p, port := range top.RouterPorts(r) {
			if port.Kind != topology.PortRouter {
				continue
			}
			if r < port.Peer || (r == port.Peer && p < port.PeerPort) {
				out = append(out, [2]int{r, p})
			}
		}
	}
	return out
}

// pick selects n distinct elements from m candidates via a partial
// Fisher-Yates shuffle and returns their indices sorted ascending.
func pick(rng *sim.RNG, m, n int) []int {
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n; i++ {
		j := i + rng.Intn(m-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := idx[:n]
	sort.Ints(out)
	return out
}

// Parse expands a spec string into a validated Schedule for the given
// topology. Random clauses draw from an RNG seeded with seed (use
// SeedFrom(cfg.Fingerprint()) so expansion is content-addressed); the
// RNG is consumed in clause order, so identical (spec, topology, seed)
// always yield the identical schedule.
func Parse(spec string, top topology.Topology, seed uint64) (Schedule, error) {
	if spec == "" {
		return nil, nil
	}
	clauses, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed)
	var ev []Event
	add := func(link bool, r, p int, from, to int64) {
		down, up := RouterDown, RouterUp
		if link {
			down, up = LinkDown, LinkUp
		}
		ev = append(ev, Event{Cycle: from, Kind: down, Router: r, Port: p})
		if to >= 0 {
			ev = append(ev, Event{Cycle: to, Kind: up, Router: r, Port: p})
		}
	}
	for _, c := range clauses {
		switch c.kind {
		case "link":
			cr, cp, err := canonicalLink(top, c.a, c.b)
			if err != nil {
				return nil, err
			}
			add(true, cr, cp, c.from, c.to)
		case "router":
			if c.a >= top.Routers() {
				return nil, fmt.Errorf("faults: router %d out of range [0,%d)", c.a, top.Routers())
			}
			add(false, c.a, 0, c.from, c.to)
		case "rand-links":
			all := links(top)
			if c.a > len(all) {
				return nil, fmt.Errorf("faults: rand-links:%d exceeds the %d links of %s", c.a, len(all), top.Name())
			}
			for _, i := range pick(rng, len(all), c.a) {
				add(true, all[i][0], all[i][1], c.from, c.to)
			}
		case "rand-routers":
			if c.a > top.Routers() {
				return nil, fmt.Errorf("faults: rand-routers:%d exceeds the %d routers of %s", c.a, top.Routers(), top.Name())
			}
			for _, i := range pick(rng, top.Routers(), c.a) {
				add(false, i, 0, c.from, c.to)
			}
		}
	}
	sortEvents(ev)
	s := Schedule(ev)
	if err := s.Validate(top); err != nil {
		return nil, err
	}
	return s, nil
}

// schemaLine is the JSONL header record.
type schemaLine struct {
	Schema string `json:"schema"`
}

// Encode writes the schedule in the smart/faults/v1 JSONL format.
func Encode(w io.Writer, s Schedule) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(schemaLine{Schema: Schema}); err != nil {
		return err
	}
	for _, ev := range s {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a smart/faults/v1 JSONL stream into a canonically
// ordered schedule. Unknown fields and anything after a line's one
// value are rejected; validation against a topology is the caller's
// (Parse path's) job.
func Decode(r io.Reader) (Schedule, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("faults: empty schedule file")
	}
	var hdr schemaLine
	if err := obs.DecodeStrict(strings.NewReader(sc.Text()), &hdr); err != nil || hdr.Schema != Schema {
		return nil, fmt.Errorf("faults: missing or unsupported schema header (want %q)", Schema)
	}
	var out Schedule
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var ev Event
		if err := obs.DecodeStrict(strings.NewReader(text), &ev); err != nil {
			return nil, fmt.Errorf("faults: line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sortEvents(out)
	return out, nil
}

// ReadFile decodes a schedule file.
func ReadFile(path string) (Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// ResolveFlag turns a -faults argument into a spec string for the
// config: a path to an existing file is decoded (smart/faults/v1) and
// canonicalized, anything else is syntax-checked as a spec and passed
// through. The returned string is what lands in Config.Faults — and
// therefore in the fingerprint — so file-based schedules stay
// content-addressed by their contents, not their path.
func ResolveFlag(arg string) (string, error) {
	if arg == "" {
		return "", nil
	}
	if _, err := os.Stat(arg); err == nil {
		s, err := ReadFile(arg)
		if err != nil {
			return "", err
		}
		if len(s) == 0 {
			return "", fmt.Errorf("faults: %s holds no events", arg)
		}
		return s.Canonical(), nil
	}
	if err := CheckSpec(arg); err != nil {
		return "", err
	}
	return arg, nil
}

// Target is the fault-mask surface of a fabric (the wormhole fabric and
// the oracle both implement it).
type Target interface {
	SetLinkDown(r, p int, down bool)
	SetRouterDown(r int, down bool)
}

// Controller replays a schedule onto a target as an engine stage. It
// must register before the traffic and fabric stages so an event at
// cycle C is in force for all of cycle C; the stage runs serially, so
// mask writes never race the sharded compute phase.
type Controller struct {
	sched Schedule
	tgt   Target
	next  int
}

// NewController builds a controller; the schedule must be validated.
func NewController(s Schedule, tgt Target) *Controller {
	return &Controller{sched: s, tgt: tgt}
}

// Register installs the controller as the "faults" engine stage.
func (c *Controller) Register(e *sim.Engine) {
	e.RegisterFunc("faults", c.tick)
}

// Applied returns how many events have fired so far.
func (c *Controller) Applied() int { return c.next }

// tick applies every event due at or before this cycle.
func (c *Controller) tick(cycle int64) {
	for c.next < len(c.sched) && c.sched[c.next].Cycle <= cycle {
		ev := c.sched[c.next]
		c.next++
		switch ev.Kind {
		case LinkDown:
			c.tgt.SetLinkDown(ev.Router, ev.Port, true)
		case LinkUp:
			c.tgt.SetLinkDown(ev.Router, ev.Port, false)
		case RouterDown:
			c.tgt.SetRouterDown(ev.Router, true)
		case RouterUp:
			c.tgt.SetRouterDown(ev.Router, false)
		}
	}
}
