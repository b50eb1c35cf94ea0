package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the packages whose share of the traced run's CPU profile is
// reported as <layer>.cpu_share.
var cpuLayers = []string{"des", "sim", "olsr", "graph", "core", "mpr", "traffic", "stats", "node"}

// cpuShares buckets the samples of a runtime/pprof CPU profile by the package
// of their leaf frame and returns each layer's share of all samples. It
// decodes the profile.proto wire format directly, so the benchmark needs no
// pprof library.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		total += n
		fn := p.locFunc[s.locs[0]]
		counts[layerOf(p.strings[p.funcName[fn]])] += n
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l+".cpu_share"] = float64(counts[l]) / float64(total)
		} else {
			shares[l+".cpu_share"] = 0
		}
	}
	return shares, nil
}

// layerOf maps a symbol such as "qolsr/internal/olsr.(*Node).HandleTC" to its
// repository layer ("olsr"), or "" outside the repository's internal tree.
func layerOf(fn string) string {
	const prefix = "qolsr/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []profSample
	locFunc  map[uint64]uint64 // location id -> function id of its innermost line
	funcName map[uint64]int64  // function id -> string table index
	strings  []string
}

// decodeProfile reads the fields of perftools.profiles.Profile the share
// computation needs: sample (2), location (4), function (5), string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s profSample
			err := eachField(data, func(num int, wire int, v uint64, d []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, d)
				case 2:
					var u []uint64
					if err := appendVarints(&u, wire, v, d); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id, fn uint64
			haveLine := false
			err := eachField(data, func(num int, wire int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if haveLine {
						return nil // the first line is the innermost inlined frame
					}
					haveLine = true
					return eachField(d, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFunc[id] = fn
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(num int, wire int, v uint64, _ []byte) error {
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
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field given either packed (wire 2)
// or one value at a time (wire 0).
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message. Varint fields arrive in
// v, length-delimited ones in data; fixed-width fields are skipped.
func eachField(b []byte, f func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
