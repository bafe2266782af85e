package serve

import (
	"bufio"
	"bytes"
	"net"
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
	if el := time.Since(start); el > ops*sinkFlushInterval/2 {
		t.Fatalf("%d control round trips took %v; answers are waiting for the %v flush tick", ops, el, sinkFlushInterval)
	}
}
