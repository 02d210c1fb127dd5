package gpusim

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"dsenergy/internal/kernels"
)

// specNumericFields returns s's int and float64 fields in declaration order,
// addressable so decodeSpec can set them.
func specNumericFields(s *Spec) []reflect.Value {
	var out []reflect.Value
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if k := v.Field(i).Kind(); k == reflect.Int || k == reflect.Float64 {
			out = append(out, v.Field(i))
		}
	}
	return out
}

// encodeSpec serializes s as 8-byte little-endian words: every numeric field
// in declaration order, then the clock menu.
func encodeSpec(s Spec) []byte {
	var b []byte
	for _, f := range specNumericFields(&s) {
		w := uint64(0)
		if f.Kind() == reflect.Float64 {
			w = math.Float64bits(f.Float())
		} else {
			w = uint64(f.Int())
		}
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	for _, mhz := range s.CoreFreqsMHz {
		b = binary.LittleEndian.AppendUint64(b, uint64(mhz))
	}
	return b
}

// decodeSpec is the inverse of encodeSpec for arbitrary bytes: fields past
// the end of b stay zero and a trailing partial word is ignored.
func decodeSpec(b []byte) Spec {
	s := Spec{Name: "fuzz"}
	for _, f := range specNumericFields(&s) {
		if len(b) < 8 {
			return s
		}
		w := binary.LittleEndian.Uint64(b)
		b = b[8:]
		if f.Kind() == reflect.Float64 {
			f.SetFloat(math.Float64frombits(w))
		} else {
			f.SetInt(int64(w))
		}
	}
	for ; len(b) >= 8; b = b[8:] {
		s.CoreFreqsMHz = append(s.CoreFreqsMHz, int(int64(binary.LittleEndian.Uint64(b))))
	}
	return s
}

// FuzzSpecValidate checks the device-spec trust boundary: New either rejects
// a spec or yields a device whose analytic model is finite, with positive
// time and non-negative energy, at every menu clock for compute- and
// memory-bound kernels. It must never panic.
func FuzzSpecValidate(f *testing.F) {
	for _, s := range AllSpecs() {
		f.Add(encodeSpec(s))
	}
	for _, c := range specValidationCases {
		s := V100Spec()
		c.mut(&s)
		f.Add(encodeSpec(s))
	}
	profiles := []kernels.Profile{computeBound(), memoryBound()}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := New(decodeSpec(data), 1)
		if err != nil {
			return
		}
		for _, mhz := range d.Spec().CoreFreqsMHz {
			for _, p := range profiles {
				r := d.Analytic(p, mhz)
				if math.IsInf(r.TimeS, 0) || math.IsInf(r.EnergyJ, 0) || !(r.TimeS > 0) || !(r.EnergyJ >= 0) {
					t.Fatalf("%s at %d MHz: time %g s, energy %g J from an accepted spec %+v",
						p.Name, mhz, r.TimeS, r.EnergyJ, d.Spec())
				}
			}
		}
	})
}
