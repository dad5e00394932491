package core

import (
	"math/rand"
	"reflect"
	"testing"

	"fabp/internal/axi"
	"fabp/internal/bio"
	"fabp/internal/isa"
)

// TestAlignStreamEqualsAlign: beat-chunked scoring must reproduce the flat
// scan exactly, for beats smaller and larger than the query.
func TestAlignStreamEqualsAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, beat := range []int{4, 16, 256, 1000} {
		for trial := 0; trial < 5; trial++ {
			p := bio.RandomProtSeq(rng, 2+rng.Intn(10))
			prog := isa.MustEncodeProtein(p)
			e, _ := NewEngine(prog, len(prog)/2)
			ref := bio.RandomNucSeq(rng, 50+rng.Intn(500))
			flat := e.Align(ref)
			streamed, stats := e.AlignStream(ref, StreamConfig{Beat: beat})
			if !reflect.DeepEqual(flat, streamed) {
				t.Fatalf("beat %d trial %d: %v != %v", beat, trial, flat, streamed)
			}
			wantBeats := (len(ref) + beat - 1) / beat
			if stats.Beats != wantBeats {
				t.Fatalf("beats %d, want %d", stats.Beats, wantBeats)
			}
		}
	}
}

func TestAlignStreamCycleAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	p := bio.RandomProtSeq(rng, 4)
	e, _ := NewEngine(isa.MustEncodeProtein(p), 6)
	ref := bio.RandomNucSeq(rng, 10_000)

	_, ideal := e.AlignStream(ref, StreamConfig{Beat: 256, Iterations: 1, Stall: axi.NoStall{}})
	if ideal.Cycles != ideal.Beats+PipelineDepth {
		t.Errorf("ideal cycles %d, want %d", ideal.Cycles, ideal.Beats+PipelineDepth)
	}
	_, seg := e.AlignStream(ref, StreamConfig{Beat: 256, Iterations: 4, Stall: axi.NoStall{}})
	if seg.Cycles != 4*seg.Beats+PipelineDepth {
		t.Errorf("segmented cycles %d, want %d", seg.Cycles, 4*seg.Beats+PipelineDepth)
	}
	if seg.ComputeCycles != 3*seg.Beats {
		t.Errorf("compute-bound cycles %d", seg.ComputeCycles)
	}
	// Stalls must not change hits.
	h1, _ := e.AlignStream(ref, StreamConfig{Beat: 256, Stall: axi.NewRandomStall(0.3, 2, 5)})
	h2, _ := e.AlignStream(ref, StreamConfig{Beat: 256, Stall: axi.NoStall{}})
	if !reflect.DeepEqual(h1, h2) {
		t.Error("stall model changed results")
	}
	// Short reference: no hits, stats still sane.
	hits, stats := e.AlignStream(bio.NucSeq{bio.A}, StreamConfig{Beat: 8})
	if hits != nil || stats.Beats != 1 {
		t.Errorf("short ref: %v %+v", hits, stats)
	}
	// Defaults: zero config fields.
	_, stats = e.AlignStream(ref, StreamConfig{})
	if stats.Beats != (len(ref)+255)/256 {
		t.Error("default beat should be 256")
	}
}
