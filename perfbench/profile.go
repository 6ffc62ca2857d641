package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuLayers are the buckets profile samples are attributed to: the
// repository's modules, "other" for any other sof package, "harness" for
// this benchmark's own code, and "runtime" for samples with neither (GC
// workers, the scheduler, the network poller).
var cpuLayers = []string{
	"sof", "core", "chain", "kstroll", "steiner", "graph", "costmodel",
	"dist", "rpc", "topology", "other", "harness", "runtime",
}

// layerOf attributes a stack (innermost frame first) to the innermost
// frame in a sof package.
func layerOf(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "sof/internal/dist/rpc."):
			return "rpc"
		case strings.HasPrefix(fn, "sof/internal/"):
			pkg := fn[len("sof/internal/"):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range cpuLayers {
				if l == pkg {
					return pkg
				}
			}
			return "other"
		case strings.HasPrefix(fn, "sof."):
			return "sof"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "harness"
		}
	}
	return "runtime"
}

// profileByLayer decodes a pprof profile with the toolchain's
// `go tool pprof -traces` and sums the sample values (nanoseconds or
// bytes) per layer.
func profileByLayer(args ...string) (map[string]float64, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	sums := make(map[string]float64)
	var (
		value float64
		stack []string
	)
	flush := func() {
		if len(stack) > 0 {
			sums[layerOf(stack)] += value
		}
		value, stack = 0, nil
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(line, " ") || strings.HasSuffix(fields[0], ":") {
			continue // header or a label line
		}
		if len(stack) == 0 {
			v, ok := parseQuantity(fields[0])
			if !ok || len(fields) < 2 {
				continue
			}
			value, fields = v, fields[1:]
		}
		stack = append(stack, fields[0])
	}
	flush()
	return sums, sc.Err()
}

var unitScale = map[string]float64{
	"ns": 1, "us": 1e3, "µs": 1e3, "ms": 1e6, "s": 1e9, "mins": 60e9, "hrs": 3600e9,
	"B": 1, "kB": 1 << 10, "MB": 1 << 20, "GB": 1 << 30, "TB": 1 << 40,
}

// parseQuantity parses a pprof quantity such as "30ms" or "1.69GB" into
// nanoseconds or bytes.
func parseQuantity(s string) (float64, bool) {
	i := strings.IndexFunc(s, func(r rune) bool {
		return (r < '0' || r > '9') && r != '.' && r != '-' && r != 'e' && r != '+'
	})
	if i <= 0 {
		return 0, false
	}
	scale, ok := unitScale[s[i:]]
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, false
	}
	return v * scale, true
}
