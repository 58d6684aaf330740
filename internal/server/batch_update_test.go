package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
)

// startEngineServer serves an engine.Engine so the batch and live-update
// request forms are available.
func startEngineServer(t *testing.T, backend string) (*engine.Engine, *rule.Set, string) {
	t.Helper()
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 200, 1)
	eng, err := engine.NewEngine(backend, set, engine.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return eng, set, addr.String()
}

func dialTest(t *testing.T, addr string) *Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBatchRequest(t *testing.T) {
	eng, set, addr := startEngineServer(t, "hicuts")
	c := dialTest(t, addr)

	var packets []rule.Packet
	for _, e := range classbench.GenerateTrace(set, 200, 9) {
		packets = append(packets, e.Key)
	}
	results, err := c.ClassifyBatch(packets)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(packets) {
		t.Fatalf("got %d results for %d packets", len(results), len(packets))
	}
	for i, p := range packets {
		want, wantOK := eng.Classify(p)
		if results[i].OK != wantOK {
			t.Fatalf("packet %d: ok=%v, want %v", i, results[i].OK, wantOK)
		}
		if wantOK && results[i].Rule.Priority != want.Priority {
			t.Fatalf("packet %d: priority %d, want %d", i, results[i].Rule.Priority, want.Priority)
		}
	}
}

// TestBatchMalformedLine checks that a bad line inside a batch produces an
// error response in its slot without poisoning the rest of the batch.
func TestBatchMalformedLine(t *testing.T) {
	_, _, addr := startEngineServer(t, "linear")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "batch 2\nnot a packet\n1 2 3 4 6\n")
	sc := bufio.NewScanner(conn)
	var lines []string
	for len(lines) < 2 && sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 2 {
		t.Fatalf("got %d response lines: %v", len(lines), lines)
	}
	if lines[0] == "" || lines[0][:5] != "error" {
		t.Errorf("line 1 = %q, want error response", lines[0])
	}
	if lines[1] != "no-match" && lines[1][:5] != "match" {
		t.Errorf("line 2 = %q, want a classification", lines[1])
	}
}

func TestBatchSizeLimit(t *testing.T) {
	_, _, addr := startEngineServer(t, "linear")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "batch %d\n", MaxBatch+1)
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatal("no response")
	}
	if got := sc.Text(); got[:5] != "error" {
		t.Errorf("response = %q, want error", got)
	}
}

// TestLiveRuleUpdate drives the add/del endpoints end to end: an inserted
// top-priority wildcard must win every lookup, and deleting it must restore
// the previous behaviour, with the version advancing on each update.
func TestLiveRuleUpdate(t *testing.T) {
	eng, _, addr := startEngineServer(t, "tss")
	c := dialTest(t, addr)

	p := rule.Packet{SrcIP: 99, DstIP: 98, SrcPort: 97, DstPort: 96, Proto: 250}
	beforeID, beforePrio, beforeOK, err := c.Classify(p)
	if err != nil {
		t.Fatal(err)
	}

	// add: full wildcard in ClassBench format at the top priority slot.
	wildcard := "@0.0.0.0/0 0.0.0.0/0 0 : 65535 0 : 65535 0x00/0x00"
	id, v1, err := c.AddRule(0, wildcard)
	if err != nil {
		t.Fatal(err)
	}
	gotID, _, ok, err := c.Classify(p)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || gotID != id {
		t.Fatalf("after add: got (id=%d, ok=%v), want inserted id %d", gotID, ok, id)
	}

	v2, err := c.DeleteRule(id)
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Errorf("version did not advance: %d -> %d", v1, v2)
	}
	afterID, afterPrio, afterOK, err := c.Classify(p)
	if err != nil {
		t.Fatal(err)
	}
	if afterOK != beforeOK || afterID != beforeID || afterPrio != beforePrio {
		t.Fatalf("after delete: (id=%d prio=%d ok=%v), want original (id=%d prio=%d ok=%v)",
			afterID, afterPrio, afterOK, beforeID, beforePrio, beforeOK)
	}
	if eng.Version() != v2 {
		t.Errorf("engine version %d != client-visible %d", eng.Version(), v2)
	}

	// Deleting again must fail cleanly.
	if _, err := c.DeleteRule(id); err == nil {
		t.Error("second delete should report an error")
	}
}

// TestUpdateUnsupported checks the graceful error when the served
// classifier is a bare tree without the Updater interface.
func TestUpdateUnsupported(t *testing.T) {
	// Embedding only the Classifier interface hides the engine's Insert and
	// Delete, leaving a lookups-only classifier.
	set := rule.NewSet([]rule.Rule{rule.NewWildcardRule(0)})
	_, addr := serveTest(t, struct{ Classifier }{newHicutsEngine(t, set)})
	c := dialTest(t, addr)
	if _, _, err := c.AddRule(0, "@0.0.0.0/0 0.0.0.0/0 0 : 65535 0 : 65535 0x00/0x00"); err == nil {
		t.Error("AddRule against a non-updatable classifier should error")
	}
}
