// Package dc implements the durable data collector: the subsystem that
// spools observability history (query requests, job traces, resilience
// events, resource-queue events, query plans, query events) to disk so the
// v_monitor.dc_* tables can answer "what happened before the crash".
//
// Each component owns a directory of size-bounded rotating segment files.
// A segment is an internal/framelog file (the WAL's framing) whose payloads
// are [u64 unixnano][record], written straight through to the file
// descriptor — no userspace buffering — so every acknowledged Append
// survives a process kill; only a torn tail (a crash mid-frame) is lost, and
// reopening truncates it away. Retention policies (max KB + max age, the
// SET_DATA_COLLECTOR_POLICY knobs) prune whole closed segments oldest-first;
// the active segment is never pruned.
package dc

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"vsfabric/internal/framelog"
)

const segMagic = "VDCSEG01"

// format is a segment's framing: the file magic, and the bound on one
// timestamped record that Append and the scan both enforce. Never assigned.
var format = framelog.Format{Magic: segMagic, MaxPayload: 1 << 28}

// ErrCrashed is returned by every operation after a simulated crash
// (FailAfterRecords) tears the active segment.
var ErrCrashed = framelog.ErrCrashed

// DefaultMaxKB is the per-component disk budget when no policy is set.
const DefaultMaxKB = 256

// Policy is one component's retention policy: keep at most MaxKB kilobytes
// of segments, and drop segments whose newest record is older than MaxAge
// (0 = no age limit). Vertica's SET_DATA_COLLECTOR_POLICY exposes the same
// two knobs.
type Policy struct {
	MaxKB  int64         `json:"max_kb"`
	MaxAge time.Duration `json:"max_age_ns"`
}

func (p Policy) maxBytes() int64 {
	kb := p.MaxKB
	if kb <= 0 {
		kb = DefaultMaxKB
	}
	return kb * 1024
}

// segTarget is the rotation threshold: segments close at ~1/4 of the byte
// budget (clamped to [1KB, 64KB]) so retention has whole-segment granularity
// without dropping a large fraction of history at once.
func (p Policy) segTarget() int64 {
	t := p.maxBytes() / 4
	if t < 1<<10 {
		t = 1 << 10
	}
	if t > 1<<16 {
		t = 1 << 16
	}
	return t
}

// Record is one spooled entry: an opaque payload stamped with the time it
// was recorded (the retention clock).
type Record struct {
	Time    time.Time
	Payload []byte
}

// segment is one on-disk segment file's bookkeeping. Only the highest-seq
// segment per component is open for appending.
type segment struct {
	path   string
	seq    uint64
	size   int64 // valid bytes (header + intact frames)
	recs   int64
	newest time.Time // newest record time (zero when empty)
}

// component is one spooled stream (query_requests, job_traces, ...).
type component struct {
	dir    string
	pol    Policy
	closed []*segment // oldest first
	active *segment
	w      *framelog.Writer // active segment, write-through
	tear   *framelog.Tear   // the spool's
}

// ComponentStats describes one component's on-disk state.
type ComponentStats struct {
	Component string
	Segments  int
	Bytes     int64
	Records   int64
	Oldest    time.Time
	Newest    time.Time
	Policy    Policy
}

// Spool is an open data-collector directory. Safe for concurrent use.
type Spool struct {
	mu    sync.Mutex
	dir   string
	comps map[string]*component

	tear framelog.Tear // counts appends across all components
}

// Open opens (or creates) the data-collector directory rooted at dir, with
// one sub-directory per component. Existing segments are scanned: torn
// tails — the signature of a crash mid-append — are truncated back to the
// last intact frame, and the highest-sequence segment reopens for
// appending. Persisted retention policies are loaded from policies.json.
func Open(dir string, components []string) (*Spool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Spool{dir: dir, comps: make(map[string]*component, len(components))}
	pols, err := loadPolicies(filepath.Join(dir, "policies.json"))
	if err != nil {
		return nil, err
	}
	for _, name := range components {
		c := &component{dir: filepath.Join(dir, name), pol: pols[name], tear: &s.tear}
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			return nil, err
		}
		if err := c.open(); err != nil {
			s.Close()
			return nil, fmt.Errorf("dc: opening component %s: %w", name, err)
		}
		s.comps[name] = c
	}
	return s, nil
}

// open scans a component's existing segments, repairs the newest one's tail,
// and opens it (or a fresh segment) for appending.
func (c *component) open() error {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return err
	}
	var segs []*segment
	for _, e := range ents {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "seg-%d.dc", &seq); err != nil || !strings.HasSuffix(e.Name(), ".dc") {
			continue
		}
		segs = append(segs, &segment{path: filepath.Join(c.dir, e.Name()), seq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	for i, sg := range segs {
		// The crash, if any, tore the newest segment's tail: cut it back to
		// the valid prefix so appends land after intact frames.
		recs, valid, err := scanSegment(sg.path, i == len(segs)-1)
		if err != nil {
			return err
		}
		sg.size = valid
		sg.recs = int64(len(recs))
		for _, r := range recs {
			if r.Time.After(sg.newest) {
				sg.newest = r.Time
			}
		}
	}
	if len(segs) == 0 {
		return c.rotate(1)
	}
	c.closed = segs[:len(segs)-1]
	return c.activate(segs[len(segs)-1])
}

// activate opens sg for appending and makes it the component's active
// segment. The previous one (if any) is closed only once sg has opened: a
// rotation that fails leaves the old segment taking appends, to be retried
// by the next one.
func (c *component) activate(sg *segment) error {
	w, err := format.OpenAppend(sg.path, 0, c.tear)
	if err != nil {
		return err
	}
	if sg.size < int64(len(segMagic)) {
		sg.size = int64(len(segMagic)) // new, or its header was torn: OpenAppend wrote one
	}
	old := c.w
	if old != nil {
		c.closed = append(c.closed, c.active)
	}
	c.active, c.w = sg, w
	if old != nil {
		return old.Close()
	}
	return nil
}

// rotate starts seg-<seq> and closes the active segment (if any).
func (c *component) rotate(seq uint64) error {
	return c.activate(&segment{path: filepath.Join(c.dir, fmt.Sprintf("seg-%08d.dc", seq)), seq: seq})
}

// retain enforces the component's policy: while the oldest closed segment
// either pushes the total size over budget or has aged out entirely, delete
// it. Oldest-first, and never the active segment — at least the newest
// history always survives.
func (c *component) retain(now time.Time) error {
	for len(c.closed) > 0 {
		oldest := c.closed[0]
		var total int64 = c.active.size
		for _, sg := range c.closed {
			total += sg.size
		}
		drop := total > c.pol.maxBytes()
		if !drop && c.pol.MaxAge > 0 && !oldest.newest.IsZero() && now.Sub(oldest.newest) > c.pol.MaxAge {
			drop = true
		}
		if !drop {
			return nil
		}
		if err := os.Remove(oldest.path); err != nil && !os.IsNotExist(err) {
			return err
		}
		c.closed = c.closed[1:]
	}
	return nil
}

// Append spools one record to a component. The frame reaches the file
// descriptor before Append returns — a process kill afterwards cannot lose
// it (only an OS/power failure between write and fsync can, matching the
// durability class of Vertica's own data collector).
func (s *Spool) Append(comp string, r Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.comps[comp]
	if !ok {
		return fmt.Errorf("dc: unknown component %q", comp)
	}
	if c.w == nil {
		return fmt.Errorf("dc: append to %s: %w", comp, os.ErrClosed)
	}
	if r.Time.IsZero() {
		r.Time = time.Now()
	}
	var ts [8]byte
	binary.LittleEndian.PutUint64(ts[:], uint64(r.Time.UnixNano()))
	n, err := c.w.Append(ts[:], r.Payload)
	if err != nil {
		return err
	}
	c.active.size += int64(n)
	c.active.recs++
	if r.Time.After(c.active.newest) {
		c.active.newest = r.Time
	}
	if c.active.size >= c.pol.segTarget() {
		if err := c.rotate(c.active.seq + 1); err != nil {
			return err
		}
	}
	return c.retain(time.Now())
}

// Records returns every intact record of a component, oldest segment first,
// append order within each segment.
func (s *Spool) Records(comp string) ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.tear.Err(); err != nil {
		return nil, err
	}
	c, ok := s.comps[comp]
	if !ok {
		return nil, fmt.Errorf("dc: unknown component %q", comp)
	}
	var out []Record
	for _, sg := range append(append([]*segment{}, c.closed...), c.active) {
		recs, _, err := scanSegment(sg.path, false)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

// SetPolicy sets (and durably persists) a component's retention policy,
// applying it immediately.
func (s *Spool) SetPolicy(comp string, p Policy) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.tear.Err(); err != nil {
		return err
	}
	c, ok := s.comps[comp]
	if !ok {
		return fmt.Errorf("dc: unknown component %q", comp)
	}
	c.pol = p
	pols := make(map[string]Policy, len(s.comps))
	for name, cc := range s.comps {
		if cc.pol != (Policy{}) {
			pols[name] = cc.pol
		}
	}
	if err := savePolicies(filepath.Join(s.dir, "policies.json"), pols); err != nil {
		return err
	}
	return c.retain(time.Now())
}

// GetPolicy returns a component's retention policy (zero value = defaults)
// and whether the component exists.
func (s *Spool) GetPolicy(comp string) (Policy, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.comps[comp]
	if !ok {
		return Policy{}, false
	}
	return c.pol, true
}

// Components returns the component names, sorted.
func (s *Spool) Components() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.comps))
	for name := range s.comps {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Stats snapshots every component's on-disk state, sorted by name.
func (s *Spool) Stats() []ComponentStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ComponentStats, 0, len(s.comps))
	for name, c := range s.comps {
		cs := ComponentStats{Component: name, Policy: c.pol}
		for _, sg := range append(append([]*segment{}, c.closed...), c.active) {
			cs.Segments++
			cs.Bytes += sg.size
			cs.Records += sg.recs
			if !sg.newest.IsZero() {
				if cs.Oldest.IsZero() || sg.newest.Before(cs.Oldest) {
					cs.Oldest = sg.newest
				}
				if sg.newest.After(cs.Newest) {
					cs.Newest = sg.newest
				}
			}
		}
		out = append(out, cs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Component < out[j].Component })
	return out
}

// Sync fsyncs every active segment.
func (s *Spool) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.comps {
		if c.w != nil {
			if err := c.w.Sync(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Syncs reports how many fsyncs the spool's segments have taken. An append is
// written through and never synced; the engine's cost test holds it to that.
func (s *Spool) Syncs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tear.Syncs
}

// FailAfterRecords installs the chaos hook: after n more successful appends
// (across all components), the next record is torn mid-frame and every
// subsequent operation returns ErrCrashed.
func (s *Spool) FailAfterRecords(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tear.FailAfter(n)
}

// Close closes every open segment file.
func (s *Spool) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, c := range s.comps {
		if c.w != nil {
			if err := c.w.Close(); err != nil && first == nil {
				first = err
			}
			c.w = nil
		}
	}
	return first
}

// scanSegment decodes a segment's intact records and reports the byte length
// of the valid prefix, truncating a torn tail away when repair is set. A
// frame too short for its timestamp is torn; a missing file yields no
// records.
func scanSegment(path string, repair bool) (recs []Record, valid int64, err error) {
	accept := func(body []byte) bool {
		if len(body) < 8 {
			return false
		}
		recs = append(recs, Record{Time: time.Unix(0, int64(binary.LittleEndian.Uint64(body))), Payload: body[8:]})
		return true
	}
	valid, err = format.ScanFile(path, repair, accept)
	return recs, valid, err
}

func loadPolicies(path string) (map[string]Policy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]Policy{}, nil
		}
		return nil, err
	}
	out := map[string]Policy{}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("dc: corrupt policies.json: %w", err)
	}
	return out, nil
}

func savePolicies(path string, pols map[string]Policy) error {
	data, err := json.MarshalIndent(pols, "", "  ")
	if err != nil {
		return err
	}
	return framelog.WriteFileAtomic(path, data)
}
