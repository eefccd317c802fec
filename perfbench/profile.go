package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profile is a CPU profile of a traced window, kept in memory.
type profile struct {
	buf bytes.Buffer
	err error
}

// startProfile starts the process CPU profile (runtime/pprof).
func startProfile() *profile {
	p := &profile{}
	p.err = pprof.StartCPUProfile(&p.buf)
	return p
}

func (p *profile) stop() {
	if p.err == nil {
		pprof.StopCPUProfile()
	}
}

// cpuBuckets are the cpu.* metrics, in report order.
var cpuBuckets = []string{
	"diffusion", "analog", "mathx", "measure", "analysis", "signalproc",
	"model", "advdiag", "wire", "json", "net", "gc", "sync", "goruntime", "other",
}

// bucketOf names the bucket a function's package belongs to, or ""
// for packages that are charged to their nearest caller instead (the
// Go runtime, reflect, strconv and the like, when called from code
// this benchmark attributes).
func bucketOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "advdiag" || pkg == "advdiag/internal/runtime" || pkg == "advdiag/internal/conc":
		return "advdiag"
	case strings.HasPrefix(pkg, "advdiag/internal/"):
		name := strings.TrimPrefix(pkg, "advdiag/internal/")
		switch name {
		case "diffusion", "analog", "mathx", "measure", "analysis", "signalproc":
			return name
		}
		return "model" // the remaining physics and chemistry packages
	case pkg == "advdiag/wire":
		return "wire"
	case pkg == "encoding/json":
		return "json"
	case pkg == "sync" || pkg == "sync/atomic":
		return "sync"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" ||
		pkg == "syscall" || pkg == "bufio" || pkg == "crypto/tls":
		return "net"
	}
	return ""
}

// gcFrames mark a sample as garbage-collector work wherever they sit
// in its stack.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot", "runtime.gcDrain",
}

// classify attributes one stack (leaf first) to a bucket: GC work
// anywhere in the stack, else the innermost frame in an attributed
// package, else the Go runtime or "other".
func classify(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if b := bucketOf(fn); b != "" {
			return b
		}
	}
	if len(stack) > 0 && strings.HasPrefix(stack[0], "runtime.") {
		return "goruntime"
	}
	return "other"
}

// cpuShares decodes a gzipped pprof CPU profile and returns each
// bucket's share of the sampled CPU time in percent, plus the sample
// count.
func cpuShares(data []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	total := int64(0)
	by := map[string]int64{}
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu nanoseconds
		stack := make([]string, 0, len(s.locs))
		for _, id := range s.locs {
			for _, fid := range prof.locFuncs[id] {
				stack = append(stack, prof.funcNames[fid])
			}
		}
		by[classify(stack)] += v
		total += v
	}
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			out[b] = 100 * float64(by[b]) / float64(total)
		}
	}
	return out, len(prof.samples), nil
}

// The profile.proto subset cpuShares needs. Field numbers are those of
// github.com/google/pprof/proto/profile.proto.
type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofData struct {
	samples   []pprofSample
	locFuncs  map[uint64][]uint64 // location → function IDs, innermost first
	funcNames map[uint64]string
}

func decodeProfile(b []byte) (*pprofData, error) {
	p := &pprofData{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	funcName := map[uint64]uint64{} // function ID → string index
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2: // Sample
			var s pprofSample
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, m)
				case 2:
					for _, u := range appendPacked(nil, v, m) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var funcs []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcName {
		if si < uint64(len(strs)) {
			p.funcNames[id] = strs[si]
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field given either unpacked
// (one value) or packed (a length-delimited run of varints).
func appendPacked(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		u, n := binary.Uvarint(msg)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		msg = msg[n:]
	}
	return dst
}

var errProto = errors.New("malformed profile protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes
// (non-nil only for wire type 2).
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, typ := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
			if msg == nil {
				msg = []byte{}
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, typ)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// setCPU records the profile's package split and writes the raw
// profile next to the spans.
func (r *report) setCPU(cfg runConfig, workload string, p *profile) error {
	if p.err != nil {
		return fmt.Errorf("cpu profile: %w", p.err)
	}
	shares, n, err := cpuShares(p.buf.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, b := range cpuBuckets {
		r.set("cpu."+b, shares[b])
	}
	r.notef("cpu.* shares from %d profile samples (runtime/pprof at 100 Hz over the traced window)", n)
	return writeOut(cfg, fmt.Sprintf("cpu-%s-%d.pprof", workload, cfg.seed), p.buf.Bytes())
}
