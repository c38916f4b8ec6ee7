package main

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// timedSelector wraps a core.SchemeSelector, timing every Choose and
// counting decisions and Observe regret per scheme. It passes every call
// and result through unchanged, so the wrapped selector decides exactly as
// it would alone.
type timedSelector struct {
	inner core.SchemeSelector

	chooseNs  atomic.Int64
	chooses   atomic.Int64
	explored  atomic.Int64
	decisions [core.SchemeAuto + 1]atomic.Int64
	regretNs  [core.SchemeAuto + 1]atomic.Int64
}

func newTimedSelector(inner core.SchemeSelector) *timedSelector {
	return &timedSelector{inner: inner}
}

// Choose implements core.SchemeSelector.
func (s *timedSelector) Choose(in core.SelectorInput) core.SchemeDecision {
	t := time.Now()
	d := s.inner.Choose(in)
	s.chooseNs.Add(int64(time.Since(t)))
	s.chooses.Add(1)
	if d.Explored {
		s.explored.Add(1)
	}
	if d.Scheme >= 0 && d.Scheme <= core.SchemeAuto {
		s.decisions[d.Scheme].Add(1)
	}
	return d
}

// Observe implements core.SchemeSelector.
func (s *timedSelector) Observe(in core.SelectorInput, chosen core.Scheme, latencyNs int64) int64 {
	r := s.inner.Observe(in, chosen, latencyNs)
	if chosen >= 0 && chosen <= core.SchemeAuto {
		s.regretNs[chosen].Add(r)
	}
	return r
}

// meanChooseNs is the mean host time of one Choose call.
func (s *timedSelector) meanChooseNs() float64 {
	n := s.chooses.Load()
	if n == 0 {
		return 0
	}
	return float64(s.chooseNs.Load()) / float64(n)
}

// String summarises the decisions and regret per scheme.
func (s *timedSelector) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d decisions, %d explored", s.chooses.Load(), s.explored.Load())
	for sc := core.SchemeGeneric; sc < core.SchemeAuto; sc++ {
		if n := s.decisions[sc].Load(); n > 0 {
			fmt.Fprintf(&b, "; %s %d decisions, %.1f us regret", sc, n, float64(s.regretNs[sc].Load())/1e3)
		}
	}
	return b.String()
}
