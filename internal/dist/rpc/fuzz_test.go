package rpc

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"sof/internal/dist"
)

// The codec fuzz targets pin the two wire-safety properties the leader
// relies on: decoding adversarial bytes never panics, and any payload the
// decoder does accept is a fixed point of the codec — decode(encode(x))
// reproduces x exactly, so a request can cross any number of capture/
// replay hops without drifting. The seed corpora are a real request and
// the real fragments answering it, captured off the equivalence-test
// instance.

// FuzzCandidateCodec fuzzes the CandidateRequest wire codec.
func FuzzCandidateCodec(f *testing.F) {
	data, err := EncodeRequest(captureRequest())
	if err != nil {
		f.Fatalf("seed encode: %v", err)
	}
	f.Add(data)
	f.Add([]byte{})
	f.Add(data[:len(data)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeRequest(data) // must error, not panic, on corruption
		if err != nil {
			return
		}
		re, err := EncodeRequest(got)
		if err != nil {
			t.Fatalf("re-encoding a decoded request failed: %v", err)
		}
		got2, err := DecodeRequest(re)
		if err != nil {
			t.Fatalf("decoding a re-encoded request failed: %v", err)
		}
		if !reflect.DeepEqual(got, got2) {
			t.Fatalf("request codec is not a fixed point:\n first %+v\nsecond %+v", got, got2)
		}
	})
}

// FuzzCandidateFragmentCodec fuzzes the CandidateFragment wire codec —
// the per-message frame of the streaming exchange. Seeds are the results
// and the Done trailer of a live AnswerStream run, re-cut by
// seedFragments, so the corpus starts on the exact byte shapes the
// framed-gob protocol moves. Each is seeded whole and cut at half its
// length.
func FuzzCandidateFragmentCodec(f *testing.F) {
	for _, frag := range seedFragments(captureFragments(f)) {
		data, err := EncodeFragment(frag)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeFragment(data) // must error, not panic, on corruption
		if err != nil {
			return
		}
		re, err := EncodeFragment(got)
		if err != nil {
			t.Fatalf("re-encoding a decoded fragment failed: %v", err)
		}
		got2, err := DecodeFragment(re)
		if err != nil {
			t.Fatalf("decoding a re-encoded fragment failed: %v", err)
		}
		if !reflect.DeepEqual(got, got2) {
			t.Fatalf("fragment codec is not a fixed point:\n first %+v\nsecond %+v", got, got2)
		}
	})
}

// seedFragments re-cuts a captured exchange into a fixed shape: one
// fragment holding every result, then one fragment per result in index
// order, then the trailer. AnswerStream coalesces whatever is already
// solved into one fragment, so the captured cut depends on timing; the
// fixed shape keeps the seed corpus, and so the names of its seed
// subtests, the same on every run, while still seeding a multi-result
// frame whole and truncated.
func seedFragments(frags []*dist.CandidateFragment) []*dist.CandidateFragment {
	var results []dist.FragmentResult
	for _, f := range frags {
		results = append(results, f.Results...)
	}
	slices.SortFunc(results, func(a, b dist.FragmentResult) int { return cmp.Compare(a.Index, b.Index) })
	head := frags[0]
	frag := func(seq int, rs []dist.FragmentResult) *dist.CandidateFragment {
		return &dist.CandidateFragment{
			CostEpoch:   head.CostEpoch,
			GraphDigest: head.GraphDigest,
			SourceSetup: head.SourceSetup,
			Seq:         seq,
			Results:     rs,
		}
	}
	out := []*dist.CandidateFragment{frag(0, results)}
	for i, r := range results {
		out = append(out, frag(i, []dist.FragmentResult{r}))
	}
	trailer := *frags[len(frags)-1]
	trailer.Seq = len(results)
	return append(out, &trailer)
}
