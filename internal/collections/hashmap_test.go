package collections

import (
	"testing"

	"racefuzzer/internal/conc"
)

func TestHashMapBasics(t *testing.T) {
	res := single(t, func(mt *conc.Thread) {
		m := NewHashMap(mt, "m")
		for i := 0; i < 20; i++ {
			if _, existed := m.Put(mt, i, i*i); existed {
				mt.Throwf("fresh key %d 'existed'", i)
			}
		}
		for i := 0; i < 20; i++ {
			v, ok := m.Get(mt, i)
			if !ok || v != i*i {
				mt.Throwf("get(%d) = %d,%v", i, v, ok)
			}
		}
		if old, existed := m.Put(mt, 7, 1000); !existed || old != 49 {
			mt.Throwf("overwrite returned %d,%v", old, existed)
		}
		if v, _ := m.Get(mt, 7); v != 1000 {
			mt.Throwf("overwritten value = %d", v)
		}
		if _, ok := m.Get(mt, 99); ok {
			mt.Throwf("phantom key")
		}
		if v, ok := m.Remove(mt, 3); !ok || v != 9 {
			mt.Throwf("remove(3) = %d,%v", v, ok)
		}
		if _, ok := m.Get(mt, 3); ok {
			mt.Throwf("remove did not take effect")
		}
		if _, ok := m.Remove(mt, 3); ok {
			mt.Throwf("double remove succeeded")
		}
	})
	noExc(t, res)
}
