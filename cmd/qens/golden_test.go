package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"qens/internal/experiments"
)

// goldenQuick holds the FNV-64a hash of every subcommand's result at
// -quick scale (Options.Quick), per seed, plus the
// NN model for the three loss tables. A result struct hashes the bits
// of its floats and its counts, ids and paths; time.Duration fields
// are left out, being wall-clock. A Text result (pretest, explain,
// report) hashes its text with every duration masked.
var goldenQuick = map[string]uint64{
	"ablation-agg/seed1":       0xdb894143fa89cba8,
	"ablation-agg/seed2":       0x10ce2f4e5e2565d8,
	"ablation-eps/seed1":       0x22c45c2454f096fa,
	"ablation-eps/seed2":       0x3e9ff37ec8a2c6c6,
	"ablation-k/seed1":         0xa51a4639c343689b,
	"ablation-k/seed2":         0xbec02729b322a45f,
	"ablation-l/seed1":         0x827f65b1820834fa,
	"ablation-l/seed2":         0xc772a5566fa894f5,
	"ablation-psi/seed1":       0x62670658ae787485,
	"ablation-psi/seed2":       0x6934187266aa3fcb,
	"ablation-quantizer/seed1": 0x1ed1782871249913,
	"ablation-quantizer/seed2": 0xfcd54e386b95b479,
	"comm/seed1":               0x83a6d4e46328cdcd,
	"comm/seed2":               0x8148a911efab27c0,
	"drift/seed1":              0x6dd3b88babe33e4d,
	"drift/seed2":              0x51bc43f21662125e,
	"explain/seed1":            0x2474ddbc4f10c0ce,
	"explain/seed2":            0xcaa1cf290f478f50,
	"fig6/seed1":               0x20adeea62ff48919,
	"fig6/seed2":               0xd7fed962c236f9b4,
	"fig7/nn/seed1":            0x3a6f3c03603088ce,
	"fig7/nn/seed2":            0xdd50e43e7cc33078,
	"fig7/seed1":               0x99c8b313fa9402be,
	"fig7/seed2":               0x78c6629e83ccebee,
	"fig8/seed1":               0x1d1cd2fe5b4ca5ab,
	"fig8/seed2":               0x2c15da75f5d74257,
	"fig9/seed1":               0xf2dd06626bd98ec0,
	"fig9/seed2":               0x629627267f62cf94,
	"multifeature/seed1":       0xec0693d82450d800,
	"multifeature/seed2":       0xe948b850fc8bf58e,
	"pretest/seed1":            0x2fbcae1c0e15120,
	"pretest/seed2":            0xfea5a2f43c71f7e,
	"report/seed1":             0x42a80fe97148a45e,
	"report/seed2":             0x916a12e4fa52fc63,
	"reuse/seed1":              0x8fb4614fa6ffc22d,
	"reuse/seed2":              0x73aafdd6ef529fb3,
	"robustness/seed1":         0xe554ce34ca4b1a56,
	"robustness/seed2":         0xc30b767cb12ab2e6,
	"sweep/seed1":              0x695333bf9fc74f8a,
	"sweep/seed2":              0x2348ef411c51b9d4,
	"table1/nn/seed1":          0x377e83ce15990800,
	"table1/nn/seed2":          0x51227296f166605,
	"table1/seed1":             0x542bbd3234f02d75,
	"table1/seed2":             0xe7b750a68bef3ead,
	"table2/nn/seed1":          0x438f5dd95d184ea3,
	"table2/nn/seed2":          0x6decffed232175f1,
	"table2/seed1":             0x38aa8dc310bd56e1,
	"table2/seed2":             0xe4fc0fcd90802c8d,
	"temporal/seed1":           0xac5c23b19751728b,
	"temporal/seed2":           0x87c7bd3fc09f5f07,
}

// TestQuickGolden recomputes every hash of goldenQuick over the
// experiment table. Any change to a loss, count, fraction, sample or
// byte count of any subcommand fails it; the failure lists the new
// table.
func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every subcommand at -quick scale")
	}
	got := map[string]uint64{}
	var mu sync.Mutex
	record := func(key string, res fmt.Stringer) {
		var h uint64
		if text, ok := res.(experiments.Text); ok {
			h = hashResult(durationPattern.ReplaceAllString(string(text), "<d>"))
		} else {
			h = hashResult(res)
		}
		mu.Lock()
		got[key] = h
		mu.Unlock()
	}
	nn := map[string]bool{"table1": true, "table2": true, "fig7": true}
	var wg sync.WaitGroup
	for _, seed := range []uint64{1, 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := experiments.Options{Seed: seed}.Quick()
			for _, e := range experiments.Experiments() {
				res, err := e.Run(opts)
				if err != nil {
					t.Errorf("%s seed %d: %v", e.Name, seed, err)
					return
				}
				record(fmt.Sprintf("%s/seed%d", e.Name, seed), res)
				if nn[e.Name] {
					o := opts
					o.Model = "nn"
					if res, err = e.Run(o); err != nil {
						t.Errorf("%s nn seed %d: %v", e.Name, seed, err)
						return
					}
					record(fmt.Sprintf("%s/nn/seed%d", e.Name, seed), res)
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(got, goldenQuick) {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			mark := ""
			if goldenQuick[k] != got[k] {
				mark = " // changed"
			}
			fmt.Fprintf(&b, "\t%q: %#x,%s\n", k, got[k], mark)
		}
		t.Fatalf("quick-scale results moved; got:\n%s", b.String())
	}
}

// durationPattern matches a time.Duration as String prints it, with
// the padding after it.
var durationPattern = regexp.MustCompile(`(\d+h)?(\d+m)?\d+(\.\d+)?(ns|µs|ms|s) *`)

var durationType = reflect.TypeOf(time.Duration(0))

// hashResult is the FNV-64a hash of v's deterministic fields.
func hashResult(v any) uint64 {
	h := fnv.New64a()
	hashValue(h, reflect.ValueOf(v))
	return h.Sum64()
}

func hashValue(h hash.Hash64, v reflect.Value) {
	var word [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(word[:], u)
		h.Write(word[:])
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			put(0)
			return
		}
		hashValue(h, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		put(uint64(len(keys)))
		for _, k := range keys {
			hashValue(h, k)
			hashValue(h, v.MapIndex(k))
		}
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.Type() != durationType {
			put(uint64(v.Int()))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		put(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.String:
		put(uint64(v.Len()))
		io.WriteString(h, v.String())
	default:
		panic("hashResult: unsupported kind " + v.Kind().String())
	}
}
