package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
)

// startTestServer builds a HiCuts engine over a small classifier and serves
// it on a loopback port.
func startTestServer(t *testing.T) (*Server, *rule.Set, string) {
	t.Helper()
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 200, 1)
	srv, addr := serveTest(t, newHicutsEngine(t, set))
	return srv, set, addr
}

// newHicutsEngine builds a single-shard HiCuts engine closed at test end.
func newHicutsEngine(t *testing.T, set *rule.Set) *engine.Engine {
	t.Helper()
	eng, err := engine.NewEngine("hicuts", set, engine.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// serveTest serves cls on a loopback port until the test ends.
func serveTest(t *testing.T, cls Classifier) (*Server, string) {
	t.Helper()
	srv := New(cls)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

func TestParseRequest(t *testing.T) {
	p, err := ParseRequest("10.0.0.1 192.168.1.1 1234 80 6")
	if err != nil {
		t.Fatal(err)
	}
	if p.SrcIP != 0x0A000001 || p.DstIP != 0xC0A80101 || p.SrcPort != 1234 || p.DstPort != 80 || p.Proto != 6 {
		t.Errorf("parsed %+v", p)
	}
	// Decimal IPs are accepted too.
	p, err = ParseRequest("167772161 3232235777 53 53 17")
	if err != nil || p.SrcIP != 167772161 {
		t.Errorf("decimal parse: %+v %v", p, err)
	}
	bad := []string{
		"1 2 3 4",                 // too few fields
		"x 2 3 4 5",               // bad src
		"1 y 3 4 5",               // bad dst
		"1 2 99999999 4 5",        // port overflow
		"1 2 3 99999999 5",        // port overflow
		"1 2 3 4 999",             // proto overflow
		"300.0.0.1 1.2.3.4 1 2 3", // bad dotted quad
	}
	for _, line := range bad {
		if _, err := ParseRequest(line); err == nil {
			t.Errorf("expected error for %q", line)
		}
	}
}

func TestServerClassifiesOverTCP(t *testing.T) {
	_, set, addr := startTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	client, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	trace := classbench.GenerateTrace(set, 200, 2)
	for _, e := range trace {
		id, priority, ok, err := client.Classify(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || priority != e.MatchRule {
			t.Fatalf("packet %v: got id=%d prio=%d ok=%v, want priority %d", e.Key, id, priority, ok, e.MatchRule)
		}
	}
}

func TestServerTextProtocol(t *testing.T) {
	srv, set, addr := startTestServer(t)
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	send := func(line string) string {
		if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
			t.Fatal(err)
		}
		resp, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(resp)
	}

	// A well-formed request using dotted quads.
	e := classbench.GenerateTrace(set, 1, 3)[0]
	resp := send(fmt.Sprintf("%s %s %d %d %d",
		rule.FormatIPv4(e.Key.SrcIP), rule.FormatIPv4(e.Key.DstIP), e.Key.SrcPort, e.Key.DstPort, e.Key.Proto))
	if !strings.HasPrefix(resp, "match ") {
		t.Errorf("response %q", resp)
	}
	// Malformed request.
	if resp := send("garbage"); !strings.HasPrefix(resp, "error ") {
		t.Errorf("response %q", resp)
	}
	// Stats request.
	if resp := send("stats"); !strings.HasPrefix(resp, "stats requests=") {
		t.Errorf("response %q", resp)
	}
	// Quit closes the connection.
	if _, err := fmt.Fprintln(conn, "quit"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadString('\n'); err == nil {
		t.Error("connection should be closed after quit")
	}

	st := srv.Stats()
	if st.Requests < 2 || st.ParseFails < 1 || st.Matches < 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestServerNoMatch(t *testing.T) {
	// A classifier without a default rule produces no-match responses.
	r0 := rule.NewWildcardRule(0)
	r0.Ranges[rule.DimProto] = rule.Range{Lo: 6, Hi: 6}
	set := rule.NewSet([]rule.Rule{r0})
	_, addr := serveTest(t, newHicutsEngine(t, set))

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	client, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, _, ok, err := client.Classify(rule.Packet{Proto: 17})
	if err != nil || ok {
		t.Errorf("expected no-match, got ok=%v err=%v", ok, err)
	}
	if _, _, ok, err := client.Classify(rule.Packet{Proto: 6}); err != nil || !ok {
		t.Errorf("expected match, got ok=%v err=%v", ok, err)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	_, set, addr := startTestServer(t)
	trace := classbench.GenerateTrace(set, 100, 5)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			client, err := Dial(ctx, addr)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for i := 0; i < 50; i++ {
				e := trace[(offset*50+i)%len(trace)]
				_, priority, ok, err := client.Classify(e.Key)
				if err != nil {
					errs <- err
					return
				}
				if !ok || priority != e.MatchRule {
					errs <- fmt.Errorf("wrong result for %v", e.Key)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerCloseAndDialErrors(t *testing.T) {
	srv, _, addr := startTestServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Listening again on a closed server fails.
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Error("listening on a closed server should fail")
	}
	// Dialing the now-closed address eventually fails.
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if client, err := Dial(ctx, addr); err == nil {
		// Some platforms accept then reset; a classify call must then fail.
		if _, _, _, err := client.Classify(rule.Packet{}); err == nil {
			t.Error("expected failure against closed server")
		}
		client.Close()
	}
	// Dialing a bogus address fails.
	if _, err := Dial(ctx, "127.0.0.1:1"); err == nil {
		t.Skip("port 1 unexpectedly open")
	}
}
