package ml

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"qens/internal/dataset"
)

// TestAppendFingerprintPinned pins the pool key: AppendFingerprint
// writes exactly the literals (defaults filled in, floats in their
// shortest exact form), appends after an existing prefix, and fills a
// stack buffer without allocating.
func TestAppendFingerprintPinned(t *testing.T) {
	third := 0.1
	third += 0.2
	cases := []struct {
		spec Spec
		want string
	}{
		{PaperLR(3), "linear|in=3|h=[]|lr=0.03|ep=100|vs=0.2"},
		{PaperNN(2), "nn|in=2|h=[64]|lr=0.001|ep=100|vs=0.2"},
		{Spec{Kind: KindNN, InputDim: 5, Hidden: []int{64, 32, 8}, LearningRate: 1e-7, Epochs: 12,
			ValidationSplit: 0.25, Seed: 9},
			"nn|in=5|h=[64 32 8]|lr=1e-07|ep=12|vs=0.25"},
		{Spec{Kind: KindLinear, InputDim: 1, LearningRate: 2.5e21, ValidationSplit: third},
			"linear|in=1|h=[]|lr=2.5e+21|ep=100|vs=0.30000000000000004"},
	}
	for _, c := range cases {
		if got := string(c.spec.AppendFingerprint(nil)); got != c.want {
			t.Errorf("AppendFingerprint(nil) = %q\nwant                  %q", got, c.want)
		}
		if got := string(c.spec.AppendFingerprint([]byte("key:"))); got != "key:"+c.want {
			t.Errorf("AppendFingerprint after a prefix = %q", got)
		}
		var buf [128]byte
		spec := c.spec
		if n := testing.AllocsPerRun(10, func() { spec.AppendFingerprint(buf[:0]) }); n != 0 {
			t.Errorf("AppendFingerprint into a stack buffer allocates %v", n)
		}
	}
}

// TestFingerprintCoversSpec: the engine's model pool hands a pooled
// instance to any spec with the same fingerprint, so every Spec field
// but Seed must reach it. Moving any other field to another valid
// value changes the fingerprint; moving Seed does not.
func TestFingerprintCoversSpec(t *testing.T) {
	base := PaperNN(3)
	base.Seed = 1
	want := string(base.AppendFingerprint(nil))
	typ := reflect.TypeOf(base)
	for i := range typ.NumField() {
		spec := base
		f := reflect.ValueOf(&spec).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(KindLinear)
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() / 2)
		case reflect.Slice:
			f.Set(reflect.ValueOf(append(slices.Clone(base.Hidden), 8)))
		default:
			t.Fatalf("Spec.%s: no other value for kind %s", typ.Field(i).Name, f.Kind())
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("Spec.%s: the changed spec is invalid: %v", typ.Field(i).Name, err)
		}
		got := string(spec.AppendFingerprint(nil))
		if same, isSeed := got == want, typ.Field(i).Name == "Seed"; same != isSeed {
			t.Errorf("Spec.%s moved: fingerprint %q, base %q", typ.Field(i).Name, got, want)
		}
	}
}

// TestLoadMatchesNewSetParams verifies Spec.Load is New + SetParams
// for prediction: bit-identical outputs from every predict method, and
// the same error text (also from CheckParams) for incompatible params.
func TestLoadMatchesNewSetParams(t *testing.T) {
	for _, spec := range flatSpecs() {
		spec.Seed = 11
		x2, y := flatBatch(40, spec.InputDim)
		trained := spec.MustNew()
		if err := trained.PartialFit(context.Background(), xyView(x2, y), 2); err != nil {
			t.Fatal(err)
		}
		p := trained.Params()

		ref := spec.MustNew()
		if err := ref.SetParams(p); err != nil {
			t.Fatal(err)
		}
		loaded, err := spec.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		a, b := ref.PredictBatch(xyView(x2, nil)), loaded.PredictBatch(xyView(x2, nil))
		for i := range a {
			if a[i] != b[i] || ref.Predict(x2[i]) != loaded.Predict(x2[i]) {
				t.Fatalf("%s: row %d: loaded predicts %v, New+SetParams %v", spec.Kind, i, b[i], a[i])
			}
		}
		if pa, pb := ref.Params(), loaded.Params(); !pa.Compatible(pb) {
			t.Fatalf("%s: loaded params %v incompatible with %v", spec.Kind, pb.Dims, pa.Dims)
		}

		bad := p.Clone()
		bad.Dims[0]++
		wantErr := spec.MustNew().SetParams(bad)
		if wantErr == nil {
			t.Fatalf("%s: SetParams accepted dims %v", spec.Kind, bad.Dims)
		}
		if _, err := spec.Load(bad); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: Load error %v, want %v", spec.Kind, err, wantErr)
		}
		if err := spec.CheckParams(bad); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: CheckParams error %v, want %v", spec.Kind, err, wantErr)
		}
		if err := spec.CheckParams(p); err != nil {
			t.Fatalf("%s: CheckParams rejected its own export: %v", spec.Kind, err)
		}
	}
}

// pinnedBatch is a deterministic batch for TestLinearFitPinned.
func pinnedBatch(n, d, off int) (x [][]float64, y []float64) {
	x = make([][]float64, n)
	y = make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = float64(((i+off)*7+j*3)%13)*3 - 6 + float64(i)/17
		}
		x[i] = row
		y[i] = 40*row[0] - row[1] + float64((i+off)%5)
	}
	return x, y
}

// TestLinearFitPinned pins the LR kernel's Fit to literals produced by
// the per-epoch standardization (normX/normY on every row of every
// epoch) that the once-per-fit standardization must match. Incremental
// PartialFit calls are pinned by TestLinearServingFitPinned.
func TestLinearFitPinned(t *testing.T) {
	check := func(name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d params, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: param %d = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	spec := PaperLR(2)
	spec.Seed = 3
	spec.Epochs = 4
	m := spec.MustNew()
	if err := m.Fit(xyView(pinnedBatch(60, 2, 0))); err != nil {
		t.Fatal(err)
	}
	check("Fit", m.Params().Values, []float64{0.35142013086329627, -0.007940714541446951, 0.005944210068179168, 48, 516.1752450980392, 9.506134480896771e+06, 13.205882352941174, 14.080882352941174, 5939.584775086507, 6216.59948096886})
}

// servingBatch is a deterministic one-feature batch in the serving
// shape: the benchmark fleet's LR model has one input feature.
func servingBatch(n, off int) dataset.View {
	x, y := make([][]float64, n), make([]float64, n)
	for i := range x {
		xi := float64(((i+off)*37)%101)/4 - 10 + float64(i)/97
		x[i] = []float64{xi}
		y[i] = 3*xi + float64((i*13+off)%7) - 3
	}
	return xyView(x, y)
}

// TestLinearServingFitPinned pins the LR kernel at the shape a serving
// train job runs: one feature, three supporting clusters of 1282 rows
// in all, E = 5 local epochs each, so the shuffle draws Perm lengths
// in the hundreds and every epoch ends on a partial mini-batch, plus
// two short fits. The literals were produced before the division-free
// shuffle and the register-accumulated gradient existed.
func TestLinearServingFitPinned(t *testing.T) {
	spec := PaperLR(1)
	spec.Seed = 17
	m := spec.MustNew()
	for c, n := range []int{412, 353, 517} {
		if err := m.PartialFit(context.Background(), servingBatch(n, c*29), 5); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d params, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: param %d = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	check("serving fit", m.Params().Values, []float64{0.9974548035328767, -2.790566306424008e-07, 1282, 14.241701111343415, 640136.0222922779, 4.7472337037811405, 70501.49789501834})

	// SGD contracts: a one-ulp drift in a gradient sum washes out of a
	// converged fit, so two short fits (27 and 59 rows, two epochs
	// each) pin the gradient's last bits too.
	for _, c := range []struct {
		n    int
		want []float64
	}{
		{27, []float64{0.14513026691284744, 0.006586191844720381, -0.07466244017070948, -3.445160823289939e-17, 27, 503.7864923747278, 5.307499246699988e+06, 12.875816993464051, 13.209150326797381, 12.098039215686274, 3304.099192618224, 3392.805074971165, 3630.373702422146}},
		{59, []float64{0.24009954011508783, 0.0026737521368959743, -0.1163702667063975, -0.0010914507804587635, 59, 532.1904287138586, 1.1759213912380498e+07, 13.604187437686937, 14.010967098703885, 13.095712861415752, 7335.535159228197, 7622.1832150607015, 7512.532168201278}},
	} {
		spec := PaperLR(3)
		spec.Seed = 5
		m := spec.MustNew()
		if err := m.PartialFit(context.Background(), xyView(pinnedBatch(c.n, 3, 1)), 2); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("short fit, %d rows", c.n), m.Params().Values, c.want)
	}
}

// TestParamsShareDimsPerShape: every Params of one model shape carries
// the same immutable dims slice, so exporting one allocates no dims;
// another shape gets a slice of its own, and SharedDims never keeps
// the caller's buffer.
func TestParamsShareDimsPerShape(t *testing.T) {
	nn := PaperNN(3)
	a, b := nn.MustNew().Params(), nn.MustNew().Params()
	if &a.Dims[0] != &b.Dims[0] {
		t.Fatal("two models of one shape export separate dims slices")
	}
	lr := PaperLR(3).MustNew().Params()
	if &lr.Dims[0] == &a.Dims[0] || fmt.Sprint(lr.Dims) != "[3 1]" {
		t.Fatalf("the LR shape shares %v with the NN's %v", lr.Dims, a.Dims)
	}
	scratch := []int{3, 1}
	shared := SharedDims(scratch)
	scratch[0] = 5
	if &shared[0] != &lr.Dims[0] || shared[0] != 3 {
		t.Fatalf("SharedDims returned %v backed by the caller's buffer or a new copy", shared)
	}
	if n := testing.AllocsPerRun(100, func() { paramDims(nn.InputDim, nn.Hidden) }); n != 0 {
		t.Fatalf("paramDims of a known shape allocates %v", n)
	}
}
