package serve

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// TestControlAcksFlushImmediately pins that a control op's answer leaves
// the connection's sink as soon as the op is answered instead of waiting
// for the next flush tick: back-to-back stats and release ops — the
// shape of a migration's restore → release sequence — and the error
// answers to an unknown op and to a malformed control line must each
// round-trip well within one sink flush interval.
func TestControlAcksFlushImmediately(t *testing.T) {
	d := &Daemon{
		Name:    "test",
		Mux:     NewDecisionMux(),
		Submit:  func([]Report) error { return nil },
		Drain:   func() error { return nil },
		Release: func([]int, int, int) (int, error) { return 0, nil },
		Stats:   func() WireStats { return WireStats{} },
	}
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		d.ServeConn(server)
		close(done)
	}()
	defer func() {
		client.Close()
		<-done
	}()
	rd := bufio.NewReader(client)
	const ops = 12
	start := time.Now()
	for i := 0; i < ops; i++ {
		var req []byte
		want := ""
		switch i % 4 {
		case 0:
			req, want = AppendControlJSON(nil, WireControl{Op: "stats"}), "stats"
		case 1:
			req, want = AppendControlJSON(nil, WireControl{Op: "release", Members: []int{0}, VNodes: 8}), "released"
		case 2:
			req = AppendControlJSON(nil, WireControl{Op: "no-such-op"})
		case 3:
			req = []byte(`{"ctl":"release","members":"0"}` + "\n")
		}
		client.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := client.Write(req); err != nil {
			t.Fatal(err)
		}
		line, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		if want == "" {
			if !bytes.HasPrefix(line, []byte(`{"error":`)) {
				t.Fatalf("op %d (%s): answer %q, want an error line", i, req, line)
			}
			continue
		}
		ack, err := ParseControlLine(line)
		if err != nil || ack.Op != want || ack.Error != "" {
			t.Fatalf("op %d: ack %+v, %v", i, ack, err)
		}
	}
	// Ops waiting on the ticker would take about one interval each.
	if el := time.Since(start); el > ops*25*time.Millisecond {
		t.Fatalf("%d control round trips took %v; answers are waiting for the %v flush tick", ops, el, 25*time.Millisecond)
	}
}

// TestDecisionsFlushWithoutTick pins that a decision line leaves the
// daemon as soon as its outcome reaches the sink, not on a flush clock:
// 20 sequential report → decision round trips, each waiting for its
// line, must finish well inside what even a 25 ms average wait per
// line would take.
func TestDecisionsFlushWithoutTick(t *testing.T) {
	d := &Daemon{Name: "test", Mux: NewDecisionMux(), Drain: func() error { return nil }}
	d.Submit = func(rs []Report) error {
		for _, r := range rs {
			d.Mux.Route(Outcome{Terminal: r.Terminal})
		}
		return nil
	}
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		d.ServeConn(server)
		close(done)
	}()
	defer func() {
		client.Close()
		<-done
	}()
	rd := bufio.NewReader(client)
	const trips = 20
	start := time.Now()
	for i := 1; i <= trips; i++ {
		client.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := client.Write(AppendBatchJSON(nil, []Report{gateMeas(TerminalID(i))})); err != nil {
			t.Fatal(err)
		}
		line, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		o, err := ParseOutcomeLine(line)
		if err != nil || o.Terminal != uint64(i) {
			t.Fatalf("trip %d: decision %+v, %v", i, o, err)
		}
	}
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Fatalf("%d decision round trips took %v; decision lines are waiting for a flush clock", trips, el)
	}
}

// stuckWriter records every Write; the first one blocks until release
// closes, and every Write fails once err is set.
type stuckWriter struct {
	entered, release chan struct{}

	mu     sync.Mutex
	writes [][]byte
	err    error
}

func (w *stuckWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	first := len(w.writes) == 0
	w.writes = append(w.writes, append([]byte(nil), p...))
	err := w.err
	w.mu.Unlock()
	if first {
		close(w.entered)
		<-w.release
	}
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

func (w *stuckWriter) snapshot() [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([][]byte(nil), w.writes...)
}

// TestSinkBellCoalesces pins the flusher's coalescing: lines written
// while the flusher is stuck in a write do not block the writer, and
// leave in order in one further write once it returns.  A write error
// then makes the sink dead: the error sticks and no output follows.
func TestSinkBellCoalesces(t *testing.T) {
	w := &stuckWriter{entered: make(chan struct{}), release: make(chan struct{})}
	s := NewSink(w)
	stop := make(chan struct{})
	defer close(stop)
	go flushLoop(s, stop)

	s.WriteOutcome(Outcome{Terminal: 1, Seq: 0})
	<-w.entered
	const n = 64
	wrote := make(chan struct{})
	go func() {
		for i := 1; i <= n; i++ {
			s.WriteOutcome(Outcome{Terminal: 1, Seq: uint64(i)})
		}
		close(wrote)
	}()
	select {
	case <-wrote:
		close(w.release)
	case <-time.After(5 * time.Second):
		close(w.release)
		t.Fatal("WriteOutcome blocked behind the flusher's write")
	}

	var lines [][]byte
	deadline := time.Now().Add(5 * time.Second)
	for {
		writes := w.snapshot()
		lines = bytes.SplitAfter(bytes.Join(writes, nil), []byte("\n"))
		lines = lines[:len(lines)-1]
		if len(lines) == n+1 {
			if len(writes) > 2 {
				t.Fatalf("%d lines took %d writes, want at most 2", n+1, len(writes))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("got %d of %d lines", len(lines), n+1)
		}
		time.Sleep(time.Millisecond)
	}
	for i, line := range lines {
		o, err := ParseOutcomeLine(line)
		if err != nil || o.Seq != uint64(i) {
			t.Fatalf("line %d: %+v, %v", i, o, err)
		}
	}

	boom := errors.New("boom")
	w.mu.Lock()
	w.err = boom
	w.mu.Unlock()
	s.WriteOutcome(Outcome{Terminal: 1, Seq: n + 1})
	for s.Flush() == nil {
		if time.Now().After(deadline) {
			t.Fatal("write error never reached the sink")
		}
		time.Sleep(time.Millisecond)
	}
	attempts := len(w.snapshot())
	s.WriteOutcome(Outcome{Terminal: 1, Seq: n + 2})
	s.WriteControl(WireControl{Op: "stats"})
	s.WriteError(boom)
	if err := s.Flush(); err != boom {
		t.Fatalf("Flush after a write error = %v, want the sticky %v", err, boom)
	}
	time.Sleep(10 * time.Millisecond)
	if got := len(w.snapshot()); got != attempts {
		t.Fatalf("dead sink wrote %d more times", got-attempts)
	}
}
