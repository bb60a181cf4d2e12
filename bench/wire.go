package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"perm/internal/tpch"
	"perm/permclient"
)

// wireClients is the number of permclient connections of wire_mixed. It
// never exceeds the CPUs of the sizing box, so clients and server workers
// do not queue behind each other for a core.
const wireClients = 2

// The write table starts with one row: over an empty bench_events the
// engine's q+ of the count returns no row where q returns one (the
// paper's theorem does not hold there), and a workload must not contain
// an operation that fails.
const (
	eventsDDL = `CREATE TABLE bench_events (e_id int, e_nation int, e_note text);
		INSERT INTO bench_events VALUES (0, 0, 'set-up')`
	countSQL = `SELECT PROVENANCE count(*) AS n FROM bench_events, nation WHERE e_nation = n_nationkey`
)

// buildPermd compiles cmd/permd into the build directory. It runs before
// any set-up is timed: a build is paid once per checkout, not per start.
func buildPermd(cfg config) (string, error) {
	bin := filepath.Join(cfg.buildDir, "permd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/permd")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building permd: %v\n%s", err, out)
	}
	return bin, nil
}

// server is a running permd child.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait has returned
	err    error
}

// startPermd starts permd on a free loopback port with TPC-H preloaded
// and returns once it answers a PING.
func startPermd(bin string, sf float64, spillDir string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close() //nolint:errcheck — only held to learn a free port
	s := &server{addr: addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(wireClients),
		"-tpch", strconv.FormatFloat(sf, 'g', -1, 64), "-spill-dir", spillDir)
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("permd exited before it was ready: %v\n%s", s.err, s.stderr.String())
		default:
		}
		if c, err := permclient.DialTimeout(addr, time.Second); err == nil {
			err = c.Ping()
			c.Close() //nolint:errcheck
			if err == nil {
				return s, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.stop() //nolint:errcheck — reporting the timeout instead
	return nil, errors.New("permd did not answer a PING within 60s")
}

// stop asks permd to drain and waits until the process has ended; a
// child that ignores SIGTERM for 15 s is killed.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck — an exited child is what we want
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck
		<-s.exited
		return errors.New("permd ignored SIGTERM and was killed")
	}
	if s.err != nil {
		return fmt.Errorf("permd: %v\n%s", s.err, s.stderr.String())
	}
	return nil
}

// wireRig is one permd child with its connections.
type wireRig struct {
	srv     *server
	clients []*permclient.Client
}

// startRig is the set-up of wire_mixed: start permd, connect, create the
// write table, and run the first draw's reads once on every connection.
func startRig(bin string, w workload, cfg config, stmts []stmt) (*wireRig, error) {
	srv, err := startPermd(bin, w.sf, cfg.tmpDir)
	if err != nil {
		return nil, err
	}
	rig := &wireRig{srv: srv}
	for i := 0; i < wireClients; i++ {
		c, err := permclient.DialConfig(srv.addr, permclient.Config{MaxRetries: 3})
		if err != nil {
			rig.close() //nolint:errcheck
			return nil, err
		}
		rig.clients = append(rig.clients, c)
	}
	if _, _, err := rig.clients[0].Exec(eventsDDL); err != nil {
		rig.close() //nolint:errcheck
		return nil, err
	}
	for _, c := range rig.clients {
		for _, s := range stmts {
			if s.set != 0 {
				continue
			}
			if _, err := c.Query(s.sql); err != nil {
				rig.close() //nolint:errcheck
				return nil, fmt.Errorf("%s: %w", s.label(), err)
			}
		}
	}
	return rig, nil
}

func (r *wireRig) close() error {
	for _, c := range r.clients {
		c.Close() //nolint:errcheck
	}
	return r.srv.stop()
}

// mixed is the shared state of the wire_mixed clients. issued counts
// inserts sent, acked inserts acknowledged: a count query must see at
// least every insert acknowledged before it was sent (read your writes,
// and everyone else's) and at most every insert sent before its reply.
type mixed struct {
	stmts  []stmt
	refs   []*signature
	issued atomic.Int64
	acked  atomic.Int64
}

func newMixed(stmts []stmt, refs []*signature) *mixed {
	m := &mixed{stmts: stmts, refs: refs}
	m.issued.Store(1) // the set-up row
	m.acked.Store(1)
	return m
}

// run drives one connection until the deadline: 90% reads cycling over
// all read statements in a seeded order, 5% single-row inserts, 5%
// provenance counts over the inserted rows.
func (m *mixed) run(id int, c *permclient.Client, seed uint64, deadline time.Time) *recorder {
	rec := newRecorder(len(m.stmts))
	rng := tpch.NewRand(seed + uint64(id)*7919)
	order := make([]int, len(m.stmts))
	for i := range order {
		order[i] = i
	}
	shuffle(rng, order)
	for pos := 0; pos < len(order) || time.Now().Before(deadline); {
		switch p := rng.Intn(100); {
		case p < 90:
			i := order[pos%len(order)]
			pos++
			rec.exec1(c, i, m.stmts[i], m.refs[i])
		case p < 95:
			m.insert(id, c, rng, rec)
		default:
			m.count(c, rec)
		}
	}
	return rec
}

func (m *mixed) insert(id int, c *permclient.Client, rng *tpch.Rand, rec *recorder) {
	n := m.issued.Add(1)
	text := fmt.Sprintf("INSERT INTO bench_events VALUES (%d, %d, 'c%d')", n, rng.Intn(len(tpch.Nations)), id)
	t0 := time.Now()
	_, affected, err := c.Exec(text)
	d := time.Since(t0)
	rec.attempted++
	rec.busy += d
	if err != nil || affected != 1 {
		rec.fail("insert: %d rows, %v", affected, err)
		return
	}
	m.acked.Add(1)
	rec.other["insert"] = append(rec.other["insert"], ms(d))
	rec.all = append(rec.all, ms(d))
}

func (m *mixed) count(c *permclient.Client, rec *recorder) {
	lo := m.acked.Load()
	t0 := time.Now()
	res, err := c.Query(countSQL)
	d := time.Since(t0)
	hi := m.issued.Load()
	rec.attempted++
	rec.busy += d
	if err != nil || len(res.Rows) == 0 {
		rec.fail("count: %v", err)
		return
	}
	rec.cells += int64(len(res.Rows) * len(res.Columns))
	// q+ has one row per counted event, each carrying the count.
	if n := res.Rows[0][0].Int(); n < lo || n > hi || int64(len(res.Rows)) != n || res.NumProvColumns() == 0 {
		rec.fail("count: %d with %d witness rows, want %d..%d", n, len(res.Rows), lo, hi)
		return
	}
	rec.other["count"] = append(rec.other["count"], ms(d))
	rec.all = append(rec.all, ms(d))
}

// drive runs all connections for the given time and merges what they
// recorded.
func (m *mixed) drive(rig *wireRig, seed uint64, seconds float64) *recorder {
	deadline := in(seconds)
	recs := make([]*recorder, len(rig.clients))
	var wg sync.WaitGroup
	for id, c := range rig.clients {
		wg.Add(1)
		go func(id int, c *permclient.Client) {
			defer wg.Done()
			recs[id] = m.run(id, c, seed, deadline)
		}(id, c)
	}
	wg.Wait()
	total := newRecorder(len(m.stmts))
	for _, r := range recs {
		total.absorb(r)
	}
	return total
}

// runWireUntraced measures wire_mixed end to end. Memory is the permd
// child's; allocations are the bench process's, that is permclient and
// the wire decoder.
func runWireUntraced(w workload, cfg config) (*runResult, error) {
	res := newResult(w, cfg, false, wireClients)
	bin, err := buildPermd(cfg)
	if err != nil {
		return nil, err
	}
	e, err := loadEmbedded(w, cfg) // in-process copy of the data, for the references only
	if err != nil {
		return nil, err
	}
	stmts := w.statements(cfg.seed, e.maxKey)

	var rig *wireRig
	var setupS []float64
	for i := 0; i < setupRepeats; i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if rig, err = startRig(bin, w, cfg, stmts); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	cfg.logf("%s: set up %d times, median %.2fs; computing %d references", w.name, setupRepeats, median(setupS), len(stmts))
	var t tally
	m := newMixed(stmts, references(e.db, stmts, &t))

	rss := sampleRSS(rig.srv.cmd.Process.Pid)
	before := mallocs()
	rec := m.drive(rig, cfg.seed, cfg.seconds)
	allocs := mallocs() - before
	peak := rss.peakMB()
	if err := rig.close(); err != nil {
		t.fail("%v", err)
	}
	if left := leftovers(cfg.tmpDir); len(left) > 0 {
		t.fail("permd left spill files behind: %v", left)
	}

	out := rec.endToEnd(stmts, wireClients, setupS, peak, allocs)
	rec.tally.merge(&t)
	return res.finish(&rec.tally, out), nil
}

// leftovers lists what is still in the spill directory.
func leftovers(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}
