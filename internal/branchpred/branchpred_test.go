package branchpred

import (
	"math/rand"
	"reflect"
	"testing"
)

// accuracy runs a sequence of (pc, outcome) through p and returns the
// fraction predicted correctly.
func accuracy(p Predictor, seq func(i int) (pc int, taken bool), n int) float64 {
	correct := 0
	for i := 0; i < n; i++ {
		pc, taken := seq(i)
		if p.Predict(pc) == taken {
			correct++
		}
		p.Update(pc, taken)
	}
	return float64(correct) / float64(n)
}

func TestBimodalLearnsBias(t *testing.T) {
	acc := accuracy(NewBimodal(10), func(i int) (int, bool) { return 100, true }, 1000)
	if acc < 0.99 {
		t.Errorf("bimodal accuracy on constant branch = %.3f, want >= 0.99", acc)
	}
}

func TestBimodalOnAlternating(t *testing.T) {
	// Strictly alternating defeats a 2-bit counter (~50%) but not TAGE.
	accB := accuracy(NewBimodal(10), func(i int) (int, bool) { return 100, i%2 == 0 }, 2000)
	accT := accuracy(NewTAGE(), func(i int) (int, bool) { return 100, i%2 == 0 }, 2000)
	if accB > 0.8 {
		t.Errorf("bimodal on alternating = %.3f, expected poor", accB)
	}
	if accT < 0.95 {
		t.Errorf("TAGE on alternating = %.3f, want >= 0.95", accT)
	}
}

func TestTAGELearnsHistoryPattern(t *testing.T) {
	// Period-7 pattern requires history correlation.
	pattern := []bool{true, true, false, true, false, false, true}
	acc := accuracy(NewTAGE(), func(i int) (int, bool) { return 42, pattern[i%len(pattern)] }, 8000)
	if acc < 0.90 {
		t.Errorf("TAGE on periodic pattern = %.3f, want >= 0.90", acc)
	}
}

func TestTAGEBeatsBimodalOnCorrelated(t *testing.T) {
	// Branch B's outcome equals branch A's previous outcome: pure global
	// history correlation.
	r := rand.New(rand.NewSource(1))
	var lastA bool
	seq := func(i int) (int, bool) {
		if i%2 == 0 {
			lastA = r.Intn(2) == 0
			return 10, lastA
		}
		return 20, lastA
	}
	accB := accuracy(NewBimodal(12), seq, 20000)
	accT := accuracy(NewTAGE(), seq, 20000)
	if accT < accB {
		t.Errorf("TAGE (%.3f) should beat bimodal (%.3f) on correlated branches", accT, accB)
	}
	if accT < 0.70 {
		t.Errorf("TAGE on correlated = %.3f, want >= 0.70", accT)
	}
}

func TestLoopPredictorCatchesFixedTripCount(t *testing.T) {
	// A loop with a fixed trip count of 10: taken 9 times, then not taken,
	// repeatedly. TAGE-SC-L's loop component should nail the exits after
	// warm-up.
	trip := 10
	p := NewTAGE()
	warm := 8 * trip
	total := 100 * trip
	correctExits, exits := 0, 0
	for i := 0; i < total; i++ {
		taken := (i%trip != trip-1)
		pred := p.Predict(7)
		if i >= warm && !taken {
			exits++
			if pred == taken {
				correctExits++
			}
		}
		p.Update(7, taken)
	}
	if exits == 0 {
		t.Fatal("no exits observed")
	}
	if float64(correctExits)/float64(exits) < 0.9 {
		t.Errorf("loop exits predicted %d/%d, want >= 90%%", correctExits, exits)
	}
}

func TestLoopPredictorAdaptsToChangedTrip(t *testing.T) {
	l := newLoopPredictor()
	run := func(trip, reps int) {
		for r := 0; r < reps; r++ {
			for i := 0; i < trip-1; i++ {
				l.update(5, true)
			}
			l.update(5, false)
		}
	}
	run(4, 10)
	if v, pred := l.predict(5); !v || pred {
		// current = 0, trip = 4: next is taken → prediction should be
		// "taken" (true). valid and true expected.
		_ = pred
	}
	run(9, 10) // trip count changes; confidence must rebuild
	for i := 0; i < 8; i++ {
		l.update(5, true)
	}
	if v, pred := l.predict(5); v && pred {
		t.Error("loop predictor should predict exit at iteration 9 after re-learning")
	}
}

func TestStaticAndOracle(t *testing.T) {
	if !(Static{Taken: true}).Predict(1) || (Static{}).Predict(1) {
		t.Error("static predictor broken")
	}
	o := Oracle{Outcome: func(pc int) bool { return pc%2 == 0 }}
	if !o.Predict(4) || o.Predict(3) {
		t.Error("oracle predictor broken")
	}
}

func TestRASCallReturn(t *testing.T) {
	r := NewRAS(8)
	r.Push(100)
	r.Push(200)
	if p, hit := r.Pop(200); !hit || p != 200 {
		t.Errorf("Pop = %d,%v; want 200,true", p, hit)
	}
	if p, hit := r.Pop(100); !hit || p != 100 {
		t.Errorf("Pop = %d,%v; want 100,true", p, hit)
	}
	if _, hit := r.Pop(300); hit {
		t.Error("Pop on empty stack must miss")
	}
	if r.Hits != 2 || r.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", r.Hits, r.Misses)
	}
}

func TestRASOverflowDropsOldest(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3)
	if p, _ := r.Pop(3); p != 3 {
		t.Errorf("top = %d, want 3", p)
	}
	if p, _ := r.Pop(2); p != 2 {
		t.Errorf("next = %d, want 2", p)
	}
	if _, hit := r.Pop(1); hit {
		t.Error("oldest entry should have been dropped")
	}
}

func TestTAGERandomIsNotCatastrophic(t *testing.T) {
	// On truly random outcomes nothing can do better than ~50%; make sure
	// the predictor doesn't crash or degrade far below chance.
	r := rand.New(rand.NewSource(2))
	acc := accuracy(NewTAGE(), func(i int) (int, bool) { return i % 37, r.Intn(2) == 0 }, 20000)
	if acc < 0.40 {
		t.Errorf("TAGE on random = %.3f, suspiciously low", acc)
	}
}

func BenchmarkTAGEPredictUpdate(b *testing.B) {
	p := NewTAGE()
	pattern := []bool{true, true, false, true, false, false, true, true}
	for i := 0; i < b.N; i++ {
		pc := (i * 13) % 4096
		taken := pattern[i%len(pattern)]
		p.Predict(pc)
		p.Update(pc, taken)
	}
}

// refFold is the reference fold definition the packed word-parallel
// foldHistory must match bit-for-bit: walk the most recent n outcomes
// newest-first, accumulate bits-wide chunks MSB-first, XOR the chunks, the
// final partial chunk unshifted.
func refFold(outcomes []bool, n, bits int) uint32 {
	var f, acc uint32
	cnt := 0
	for i := 0; i < n; i++ {
		var b uint32
		if i < len(outcomes) && outcomes[len(outcomes)-1-i] {
			b = 1
		}
		acc = acc<<1 | b
		cnt++
		if cnt == bits {
			f ^= acc
			acc, cnt = 0, 0
		}
	}
	if cnt > 0 {
		f ^= acc
	}
	return f & (1<<bits - 1)
}

// TestFoldHistoryMatchesReference locks the packed fold to the reference
// definition across random histories for every (length, width) pair the
// predictor uses — the memoized folds must be invisible in predictions.
func TestFoldHistoryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tg := NewTAGE()
	var outcomes []bool
	for step := 0; step < 2000; step++ {
		for _, n := range histLens {
			for _, bits := range []int{taggedBits, tagBits, tagBits - 1} {
				if got, want := tg.foldHistory(n, bits), refFold(outcomes, n, bits); got != want {
					t.Fatalf("step %d: foldHistory(%d, %d) = %#x, want %#x", step, n, bits, got, want)
				}
			}
		}
		pc := rng.Intn(1 << 14)
		taken := rng.Intn(3) > 0
		tg.Predict(pc)
		tg.Update(pc, taken)
		outcomes = append(outcomes, taken)
	}
}

// TestTAGEResetMatchesFresh: a trained predictor, once reset, equals a new
// one field for field.
func TestTAGEResetMatchesFresh(t *testing.T) {
	p := NewTAGE()
	rng := rand.New(rand.NewSource(5))
	accuracy(p, func(i int) (int, bool) { return rng.Intn(4096), rng.Intn(3) == 0 }, 20000)
	p.Reset()
	if !reflect.DeepEqual(p, NewTAGE()) {
		t.Fatal("a reset TAGE differs from a fresh one")
	}
}
