package main

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/scan"
)

func smokeSpec(t *testing.T, name string) workloadSpec {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	return scaleSmoke(w)
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		spec := scaleSmoke(w)
		a, err := newInputs(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newInputs(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newInputs(spec, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.pool, b.pool) || !reflect.DeepEqual(a.want, b.want) || !reflect.DeepEqual(a.generate(), b.generate()) {
			t.Errorf("%s: same seed, different inputs", w.Name)
		}
		if reflect.DeepEqual(a.pool, c.pool) || reflect.DeepEqual(a.generate(), c.generate()) {
			t.Errorf("%s: different seeds, same inputs", w.Name)
		}
		if len(a.pool)%batchSize != 0 || len(a.pool) == 0 {
			t.Errorf("%s: pool of %d is not whole batches", w.Name, len(a.pool))
		}
		if a.writeObject(5) != b.writeObject(5) || a.writeObject(5) == c.writeObject(5) || a.writeObject(5) == a.writeObject(6) {
			t.Errorf("%s: write objects do not follow (seed, index)", w.Name)
		}
		if o := a.writeObject(3); o.ID != a.writeBase+3 || o.Min[0] < 0 || o.Max[2] > 10000 || o.Max[1]-o.Min[1] < 1 || o.Max[1]-o.Min[1] > 10 {
			t.Errorf("%s: write object out of shape: %+v", w.Name, o)
		}
	}
}

func TestWriteStreamSchedule(t *testing.T) {
	var ws writeStream
	live := map[int]bool{}
	for op := 0; op < 4*writeLag+10; op++ {
		i, del := ws.next()
		if del {
			if !live[i] {
				t.Fatalf("op %d deletes %d, which is not live", op, i)
			}
			if i != ws.deleted {
				t.Fatalf("op %d deletes %d, but the oldest live object is %d", op, i, ws.deleted)
			}
			delete(live, i)
		} else {
			live[i] = true
		}
		ws.done(del)
		if op > 2*writeLag+2 && del != (op%2 == 1) {
			t.Fatalf("op %d: inserts and deletes should alternate once the window is full", op)
		}
	}
	if len(live) != ws.inserted-ws.deleted || len(live) < writeLag || len(live) > writeLag+1 {
		t.Errorf("live window %d (inserted %d, deleted %d), want about %d", len(live), ws.inserted, ws.deleted, writeLag)
	}
}

func TestOracleAgreesWithScan(t *testing.T) {
	in, err := newInputs(smokeSpec(t, "serve_read"), 3)
	if err != nil {
		t.Fatal(err)
	}
	data := in.generate()
	ref := scan.New(data)
	o := newOracle(data)
	var buf []int32
	for i, q := range in.pool {
		buf = ref.Query(q, buf[:0])
		if got, want := o.answer(q), digest(buf, math.MaxInt32); got != want {
			t.Fatalf("query %d: grid %+v, scan %+v", i, got, want)
		}
	}
	// Tampering with one expected answer must be caught by the audit.
	in.want[0].n++
	if err := o.crossCheck(in.pool, in.want, len(in.pool)); err == nil {
		t.Error("crossCheck accepted a wrong expected answer")
	}
}

func TestDigestIgnoresOrderAndWrittenIDs(t *testing.T) {
	a := digest([]int32{3, 1, 2, 100, 101}, 100)
	b := digest([]int32{2, 3, 1}, 100)
	if a != b || a.n != 3 {
		t.Errorf("digest %+v vs %+v", a, b)
	}
	if digest([]int32{1, 2, 4}, 100) == b {
		t.Error("different ID sets share a digest")
	}
}
