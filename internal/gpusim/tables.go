package gpusim

import "sort"

// freqTables holds the frequency-dependent model terms over a device's
// clock menu, indexed by menu position. Built once in New from the validated
// spec, immutable afterwards, and shared by every Fork of the device — the
// menu is fixed for the device's lifetime, so the table never invalidates.
type freqTables struct {
	menu  []int       // strictly ascending clock menu (aliases Spec.CoreFreqsMHz)
	terms []freqTerms // terms[i] = freqTermsAt(menu[i])
}

func newFreqTables(s *Spec) *freqTables {
	t := &freqTables{
		menu:  s.CoreFreqsMHz,
		terms: make([]freqTerms, len(s.CoreFreqsMHz)),
	}
	for i, f := range s.CoreFreqsMHz {
		t.terms[i] = s.freqTermsAt(f)
	}
	return t
}

// menuIndex returns the clock-menu position of mhz, or ok=false when mhz is
// not a selectable frequency.
func (t *freqTables) menuIndex(mhz int) (int, bool) {
	i := sort.SearchInts(t.menu, mhz)
	if i < len(t.menu) && t.menu[i] == mhz {
		return i, true
	}
	return 0, false
}
