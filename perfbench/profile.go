package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
)

// cpuProfile accumulates CPU samples per layer over one or more profiled
// intervals of a traced run.
type cpuProfile struct {
	buf    bytes.Buffer
	on     bool
	total  int64
	layers map[string]int64 // "" holds the unattributed samples
}

func (p *cpuProfile) start() error {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	p.on = true
	return nil
}

// stop ends the current interval and folds its samples into the layers.
func (p *cpuProfile) stop() error {
	if !p.on {
		return nil
	}
	pprof.StopCPUProfile()
	p.on = false
	samples, err := parseProfile(&p.buf)
	if err != nil {
		return fmt.Errorf("parse cpu profile: %w", err)
	}
	for _, s := range samples {
		p.total += s.count
		p.layers[layerOfStack(s.frames)] += s.count
	}
	return nil
}

// share returns the fraction of samples attributed to layer.
func (p *cpuProfile) share(layer string) float64 {
	return ratio(float64(p.layers[layer]), float64(p.total))
}

// publish sets every <layer>.cpu_share metric named in perLayer, plus
// unattributed.cpu_share and the sample count.
func (p *cpuProfile) publish(r *run) {
	for _, d := range perLayer {
		const suffix = ".cpu_share"
		if len(d.Name) > len(suffix) && d.Name[len(d.Name)-len(suffix):] == suffix {
			layer := d.Name[:len(d.Name)-len(suffix)]
			if layer == "unattributed" {
				layer = ""
			}
			if layer == "gc" {
				continue // from the runtime's own accounting, not the profile
			}
			r.set(d.Name, p.share(layer))
		}
	}
	r.set("trace.profile_samples", float64(p.total))
}

// profSample is one profile sample: its weight and its function names
// from the leaf outwards, inlined frames included.
type profSample struct {
	count  int64
	frames []string
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what layer attribution needs: sample stacks and
// function names.
func parseProfile(r io.Reader) ([]profSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		malformed = errors.New("malformed profile")
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			var values []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wire, v, b)
				case 2:
					return appendUints(&values, wire, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0]) // sample_type[0] is samples/count
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			if wire != 2 {
				return malformed
			}
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
					ps.frames = append(ps.frames, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message. For
// varint fields v holds the value; for length-delimited fields b holds
// the payload. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("malformed profile: bad key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("malformed profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("malformed profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("malformed profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, wire, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("malformed profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("malformed profile: wire type %d", wire)
		}
	}
	return nil
}

// appendUints appends a repeated uint64 field in either packed or
// unpacked encoding.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("malformed profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
