package core

import (
	"bytes"
	"fmt"
	"iter"
	"log"
	"os"
	"slices"
	"strings"
	"testing"

	"vega/internal/corpus"
	"vega/internal/generate"
	"vega/internal/obs"
	"vega/internal/repair"
)

// verifyFingerprint extends backendFingerprint with the verification
// outcome: repair must be just as deterministic as decoding.
func verifyFingerprint(b *generate.Backend) string {
	var sb strings.Builder
	sb.WriteString(backendFingerprint(b))
	for _, f := range b.Functions {
		if f.Verify == nil {
			fmt.Fprintf(&sb, "%s|unset\n", f.Name)
			continue
		}
		fmt.Fprintf(&sb, "%s|%s|%d|%v|%q\n", f.Name, f.Verify.Status,
			f.Verify.Rounds, f.Verify.RepairedRows, f.Verify.Counterexample)
	}
	return sb.String()
}

// TestGenerateVerifyStatuses checks the opt-in contract: with Verify on,
// every non-failed function carries a verification status and the backend
// counters add up; with Verify off, no function is touched.
func TestGenerateVerifyStatuses(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)
	p.Cfg.Verify = true
	b := p.GenerateBackend("RISCV")

	var passed, repaired, failed, noOracle int
	for _, f := range b.Functions {
		if f.Failed() {
			continue
		}
		if f.Verify == nil {
			t.Fatalf("%s: no verification with Cfg.Verify on", f.Name)
		}
		switch f.Verify.Status {
		case generate.VerifyPassed:
			passed++
		case generate.VerifyRepaired:
			repaired++
			if len(f.Verify.RepairedRows) == 0 || f.Verify.Rounds < 1 {
				t.Errorf("%s: repaired without rows/rounds: %+v", f.Name, f.Verify)
			}
		case generate.VerifyFailed:
			failed++
			if f.Verify.Counterexample == "" {
				t.Errorf("%s: failed verification without counterexample", f.Name)
			}
		case generate.VerifyNoOracle:
			noOracle++
		default:
			t.Errorf("%s: unexpected status %v", f.Name, f.Verify.Status)
		}
	}
	if passed+repaired+failed == 0 {
		t.Error("no function was verified against the RISCV oracle")
	}
	if b.Verified != passed+repaired || b.Repaired != repaired || b.RepairFailed != failed {
		t.Errorf("counters verified=%d repaired=%d failed=%d, want %d/%d/%d",
			b.Verified, b.Repaired, b.RepairFailed, passed+repaired, repaired, failed)
	}

	// Verify off: zero residue.
	p.Cfg.Verify = false
	plain := p.GenerateBackend("RISCV")
	for _, f := range plain.Functions {
		if f.Verify != nil {
			t.Fatalf("%s: verification set without Verify", f.Name)
		}
	}
	if plain.Verified != 0 || plain.Repaired != 0 || plain.RepairFailed != 0 {
		t.Errorf("plain backend carries repair counters: %+v", plain)
	}
}

// TestVerifyWorkerCountInvariant: the verified (and possibly repaired)
// backend must stay byte-identical for any worker count — repair runs
// per-function with a per-call ban list and a fresh eval universe, so
// worker scheduling cannot leak into outcomes.
func TestVerifyWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)
	p.Cfg.Verify = true

	p.Cfg.Workers = 1
	one := p.GenerateBackend("RISCV")
	p.Cfg.Workers = 8
	many := p.GenerateBackend("RISCV")

	if a, b := verifyFingerprint(one), verifyFingerprint(many); a != b {
		t.Error("verified backend differs between Workers=1 and Workers=8")
	}
}

// TestVerifyOffMatchesBaseline: running with Verify off must produce the
// exact backend the pre-repair pipeline produced — the zero-overhead-off
// guarantee is also a zero-interference guarantee.
func TestVerifyOffMatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)
	base := backendFingerprint(p.GenerateBackend("RISCV"))

	p.Cfg.Verify = true
	_ = p.GenerateBackend("RISCV") // a verified run in between must not leak state

	p.Cfg.Verify = false
	again := backendFingerprint(p.GenerateBackend("RISCV"))
	if base != again {
		t.Error("baseline backend changed after a verified run")
	}
}

// TestSkipRepairVerifiesWithoutRounds: the degrade rung keeps statuses
// flowing but never burns a repair round, and never improves a function.
func TestSkipRepairVerifiesWithoutRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)
	b := p.GenerateBackendOptions(t.Context(), "RISCV",
		GenOptions{Verify: true, SkipRepair: true})
	for _, f := range b.Functions {
		if f.Failed() || f.Verify == nil {
			continue
		}
		if f.Verify.Status == generate.VerifyRepaired || f.Verify.Rounds != 0 {
			t.Errorf("%s: repair ran under SkipRepair: %+v", f.Name, f.Verify)
		}
	}
	if b.Repaired != 0 {
		t.Errorf("Repaired = %d under SkipRepair, want 0", b.Repaired)
	}
}

// TestRepairRecoversFunctions is the tentpole's acceptance check at unit
// scale: on the deterministic untrained pipeline, counterexample-guided
// repair must recover at least one function plain generation got wrong,
// and must never lose one (verified pass@1 >= plain pass@1 by revert).
func TestRepairRecoversFunctions(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)
	p.Cfg.Verify = true
	b := p.GenerateBackend("RISCV")
	if b.Repaired < 1 {
		t.Errorf("Repaired = %d, want >= 1 recovered function", b.Repaired)
	}
	if b.Verified < b.Repaired {
		t.Errorf("Verified %d < Repaired %d", b.Verified, b.Repaired)
	}
}

// eagerDecoder drains the whole candidate sequence of the wrapped decoder
// before yielding any of it — every source, the beam search included,
// runs on every call, as when Candidates returned a slice.
type eagerDecoder struct{ repair.Decoder }

func (d eagerDecoder) Candidates(fnName string, row int, banned []string, forcePresent bool) iter.Seq[generate.Statement] {
	return slices.Values(slices.Collect(d.Decoder.Candidates(fnName, row, banned, forcePresent)))
}

// TestLazyRepairCandidatesMatchEager: the repair loop pulls candidates
// lazily and stops early (the first acceptable batch candidate, the
// MaxCandidates bound), skipping work the output never depends on. The
// verified backends must match the eager decoder's byte for byte, on
// every held-out target, at Workers 1 and 2. The eager side, the slow
// one, runs once per target, alternating its worker count. The model is
// briefly trained: an untrained one proposes no beam candidate that
// survives the decoder's filters, so consumers would never stop inside
// the beam source.
func TestLazyRepairCandidatesMatchEager(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p, err := New(testCorpus(t), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(); err != nil {
		t.Fatal(err)
	}
	p.Cfg.Verify = true
	fingerprint := func(target string, workers int, eager bool) string {
		p.Cfg.Workers = workers
		p.wrapRepairDecoder = nil
		if eager {
			p.wrapRepairDecoder = func(d repair.Decoder) repair.Decoder { return eagerDecoder{d} }
		}
		b := p.GenerateBackend(target)
		return fmt.Sprintf("%s%d/%d/%d", verifyFingerprint(b), b.Verified, b.Repaired, b.RepairFailed)
	}
	for i, target := range []string{"RISCV", "RI5CY", "XCore"} {
		eagerWorkers := 1 + i%2
		eager := fingerprint(target, eagerWorkers, true)
		for _, workers := range []int{1, 2} {
			if fingerprint(target, workers, false) != eager {
				t.Errorf("%s: lazy (Workers=%d) and eager (Workers=%d) repair candidates give different verified backends",
					target, workers, eagerWorkers)
			}
		}
	}
}

// TestRepairBeamDecodesCounter: repair.beam_decodes counts the beam
// searches repair runs to mine candidates. It stays at zero without
// Verify, and laziness keeps it below the candidates verified — an
// eager decoder ran one beam search per candidate sequence.
func TestRepairBeamDecodesCounter(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	mem := &obs.MemSink{}
	cfg := tinyConfig()
	cfg.Obs = obs.New(mem)
	p, err := New(testCorpus(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	initModel(t, p)
	read := func(name string) float64 {
		cfg.Obs.Flush()
		m, _ := mem.Metric(name)
		return m.Value
	}

	p.GenerateBackend("RISCV")
	if got := read("repair.beam_decodes"); got != 0 {
		t.Errorf("repair.beam_decodes = %v with Verify off, want 0", got)
	}
	p.Cfg.Verify = true
	p.GenerateBackend("RISCV")
	beams, tried := read("repair.beam_decodes"), read("repair.candidates_tried")
	if beams <= 0 || beams >= tried {
		t.Errorf("repair.beam_decodes = %v, candidates_tried = %v; want 0 < beam decodes < tried", beams, tried)
	}
}

// failingRefProvider is a provider whose reference backend for one fleet
// target fails to build.
type failingRefProvider struct {
	corpus.Provider
	target string
}

func (f failingRefProvider) ReferenceBackend(name string) (*corpus.Backend, error) {
	if name == f.target {
		return nil, fmt.Errorf("reference %s: simulated build failure", name)
	}
	return f.Provider.ReferenceBackend(name)
}

// TestVerifyLogsReferenceFailure: a fleet target whose reference backend
// fails to build still degrades every function to no-oracle, but the
// failure is logged (once) instead of swallowed.
func TestVerifyLogsReferenceFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	var logs bytes.Buffer
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	p, err := NewFromProvider(failingRefProvider{Provider: testCorpus(t), target: "RISCV"}, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	initModel(t, p)
	p.Cfg.Verify = true
	for range 2 {
		b := p.GenerateBackend("RISCV")
		for _, f := range b.Functions {
			if !f.Failed() && (f.Verify == nil || f.Verify.Status != generate.VerifyNoOracle) {
				t.Fatalf("%s: verify = %+v, want VerifyNoOracle", f.Name, f.Verify)
			}
		}
	}
	if n := strings.Count(logs.String(), "simulated build failure"); n != 1 {
		t.Errorf("reference failure logged %d times, want once per pipeline; log:\n%s", n, logs.String())
	}
}
