package main

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hdfe/internal/obs/audit"
	"hdfe/internal/registry"
)

// TestRunAuditTrail boots hdserve with -audit-dir, scores traffic, shuts
// down, verifies and replays the trail offline, and boots again on the
// same directory to check the chain resumes.
func TestRunAuditTrail(t *testing.T) {
	dir := t.TempDir()
	model := writeDemo(t, dir, "dep.bin", 128, 42)
	auditDir := filepath.Join(dir, "audit")
	s := boot(t, "-model", model, "-audit-dir", auditDir, "-audit-fsync", "50ms")
	if !strings.Contains(s.out.String(), "audit trail enabled") {
		t.Fatalf("no audit-enabled log line; stdout %q", s.out)
	}

	wantBits := map[string]uint64{}
	for i := 0; i < 5; i++ {
		var sr struct {
			RequestID string  `json:"request_id"`
			Score     float64 `json:"score"`
		}
		s.post("/v1/score", record, &sr)
		wantBits[sr.RequestID] = math.Float64bits(sr.Score)
	}

	// The exposition must carry the audit families.
	prom := s.get("/metrics")
	for _, want := range []string{"hdfe_audit_events_total", "hdfe_audit_chain_length", "hdfe_audit_dropped_total"} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	s.stop()

	res, err := audit.VerifyDir(auditDir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if res.Outcomes["scored"] != len(wantBits) {
		t.Fatalf("%d scored events, want %d (census %v)", res.Outcomes["scored"], len(wantBits), res.Outcomes)
	}
	dep, sha, err := registry.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := audit.Replay(auditDir, dep, sha)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Replayed != len(wantBits) || rr.Matched != rr.Replayed {
		t.Fatalf("replay: replayed %d matched %d, want %d", rr.Replayed, rr.Matched, len(wantBits))
	}

	// A second boot on the same directory must resume the chain, not
	// restart it.
	s = boot(t, "-model", model, "-audit-dir", auditDir)
	if !strings.Contains(s.out.String(), "resumed_seq="+strconv.FormatUint(res.LastSeq, 10)) {
		t.Errorf("second boot did not resume at seq %d; stdout %q", res.LastSeq, s.out)
	}
}

func TestRunAuditFlagErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	ctx := context.Background()
	for _, args := range [][]string{
		{"-demo", "-audit-dir", "x", "-audit-fsync", "sometimes"},
		{"-demo", "-audit-dir", "x", "-audit-fsync", "-1s"},
	} {
		if err := run(ctx, args, &out, &errOut); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
