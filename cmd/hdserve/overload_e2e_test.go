package main

import (
	"bytes"
	"context"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestRunOverloadFlags drives the overload-protection flags through the
// real binary entrypoint: -max-inflight 1 plus a -chaos-spec batch stall
// forces concurrent clients to split into admitted requests and 429s
// carrying Retry-After, with the sheds visible in /metrics.
func TestRunOverloadFlags(t *testing.T) {
	s := boot(t, "-demo", "-dim", "128",
		"-max-inflight", "1", "-retry-after", "2s",
		"-chaos-spec", "batch:p=1,delay=250ms", "-chaos-seed", "7",
		"-request-timeout", "5s")
	if !strings.Contains(s.out.String(), "chaos injection enabled") {
		t.Fatalf("-chaos-spec did not log the chaos warning: %q", s.out)
	}

	// Four concurrent clients against a 1-record budget held ~250ms by
	// the injected stall: at least one admitted (200), at least one shed
	// (429 with a whole-second Retry-After >= 1).
	const clients = 4
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		ok, shed int
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post("http://"+s.addr+"/v1/score", "application/json", strings.NewReader(record))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				shed++
				if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
					t.Errorf("429 Retry-After %q, want integer seconds >= 1", resp.Header.Get("Retry-After"))
				}
			default:
				t.Errorf("status %d under overload, want 200 or 429", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if ok == 0 || shed == 0 {
		t.Fatalf("%d accepted / %d shed of %d clients; want both nonzero", ok, shed, clients)
	}

	metrics := s.get("/metrics")
	if n, found := metric(metrics, `hdfe_shed_total{reason="queue_full"}`); !found {
		t.Error("hdfe_shed_total{reason=\"queue_full\"} missing from /metrics")
	} else if n < float64(shed) {
		t.Errorf("hdfe_shed_total{queue_full} = %v, clients saw %d rejections", n, shed)
	}
	if !strings.Contains(metrics, "hdserve_inflight_records") {
		t.Error("hdserve_inflight_records missing from /metrics")
	}
}

// TestRunChaosSpecErrors pins the flag contract: a malformed -chaos-spec
// fails startup with a parse error instead of silently serving without
// injection.
func TestRunChaosSpecErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run(context.Background(), []string{"-demo", "-dim", "128",
		"-chaos-spec", "bogus:p=1"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "unknown injection point") {
		t.Fatalf("bad -chaos-spec: err %v, want unknown-injection-point parse error", err)
	}
}
