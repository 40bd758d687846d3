package main

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
	"time"
)

// rssSampler records the peak resident set of successive units of a
// measured phase — replay passes, paper sweeps, or one-second windows of
// the job loops — reading VmHWM from /proc/self/status and resetting it
// through /proc/self/clear_refs. The reported figure is the median unit
// peak: the process-lifetime peak depends on when the garbage collector
// happened to run during the worst allocation burst and repeats poorly
// from run to run. A nil sampler records nothing.
type rssSampler struct {
	stop  chan struct{} // closes the window ticker, when there is one
	done  chan struct{}
	peaks []float64 // MiB
}

// startRSS begins sampling; the caller marks each unit's end.
func startRSS() *rssSampler {
	s := &rssSampler{}
	if resetPeak() != nil {
		return nil // no resettable peak here; finish falls back
	}
	return s
}

// startRSSWindows begins sampling with a window of one second.
func startRSSWindows() *rssSampler {
	s := startRSS()
	if s == nil {
		return nil
	}
	s.stop, s.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.done)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.mark()
			}
		}
	}()
	return s
}

// mark ends a unit: it records the peak since the last mark and resets it.
func (s *rssSampler) mark() {
	if s == nil {
		return
	}
	if v, ok := peakMiB(); ok {
		s.peaks = append(s.peaks, v)
	}
	_ = resetPeak() // worked at start; a failure only merges two units
}

// finish stops the sampler and returns the median unit peak, or the
// process's lifetime peak where the kernel keeps no resettable one.
func (s *rssSampler) finish() float64 {
	if s != nil && s.stop != nil {
		close(s.stop)
		<-s.done
		s.mark() // the partial last window
	}
	if s == nil || len(s.peaks) == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0
		}
		return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return median(s.peaks)
}

func resetPeak() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakMiB reads the peak resident set since the last reset.
func peakMiB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	i := bytes.Index(data, []byte("VmHWM:"))
	if i < 0 {
		return 0, false
	}
	f := bytes.Fields(data[i+len("VmHWM:"):])
	if len(f) < 1 {
		return 0, false
	}
	kb, err := strconv.ParseFloat(string(f[0]), 64)
	if err != nil {
		return 0, false
	}
	return kb / 1024, true
}
