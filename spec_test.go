package castencil

import (
	"reflect"
	"testing"
)

// TestBuildRunOptions folds a spec's resolved options: every string knob
// lands in the option bag through its canonical parser.
func TestBuildRunOptions(t *testing.T) {
	if o := buildRunOptions(); o.TraceNode != -1 {
		t.Errorf("default TraceNode = %d, want -1", o.TraceNode)
	}
	s := Spec{N: 64, Tile: 16, Steps: 4, Workers: 4, Coalesce: "step",
		Fault: "drop=0.01,seed=7", Machine: "Stampede2"}
	r, err := s.Options()
	if err != nil {
		t.Fatal(err)
	}
	o := buildRunOptions(append(r.Options, nil)...) // nil options are skipped
	if o.Workers != 4 || o.Coalesce != CoalesceStep ||
		o.Fault == nil || o.Fault.Drop != 0.01 || o.Fault.Seed != 7 || o.Machine.Name != "Stampede2" {
		t.Errorf("options not applied: %+v", o)
	}
	s.Coalesce, s.Fault, s.Machine = "", "off", ""
	if r, err = s.Options(); err != nil {
		t.Fatal(err)
	}
	if o := buildRunOptions(r.Options...); o.Coalesce != CoalesceOff || o.Fault != nil || o.Machine.Name != "NaCL" {
		t.Errorf("defaults not applied: %+v", o)
	}
}

// Every Spec field declares its role, and the roles are what Fingerprint
// does: a result field moves the hash, any other field does not.
func TestSpecRoleTags(t *testing.T) {
	base := Spec{Engine: "real", Variant: "ca", N: 256, Tile: 32, Nodes: 4, Steps: 40, StepSize: 4, Seed: 7}
	fp := base.Fingerprint()
	st := reflect.TypeOf(base)
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		role := f.Tag.Get("role")
		if role != "result" && role != "exec" && role != "policy" {
			t.Errorf("field %s has role %q, want result, exec or policy", f.Name, role)
			continue
		}
		s := base
		switch v := reflect.ValueOf(&s).Elem().Field(i); v.Kind() {
		case reflect.String:
			v.SetString("x" + v.String())
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 3)
		default:
			v.SetInt(v.Int() + 3)
		}
		if moved := s.Fingerprint() != fp; moved != (role == "result") {
			t.Errorf("field %s (role %s): perturbing it moved the fingerprint = %v", f.Name, role, moved)
		}
	}
}
