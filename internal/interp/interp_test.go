package interp

import (
	"errors"
	"testing"

	"vega/internal/cpp"
)

func parseFn(t *testing.T, src string) *cpp.Node {
	t.Helper()
	fn, err := cpp.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

func TestCallSimpleArithmetic(t *testing.T) {
	fn := parseFn(t, `int add(int a, int b) { return a + b * 2; }`)
	got, err := Call(fn, NewEnv(), map[string]any{"a": int64(3), "b": int64(4)})
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(11) {
		t.Errorf("got %v", got)
	}
}

func TestSwitchFallThrough(t *testing.T) {
	fn := parseFn(t, `int f(int k) {
  int acc = 0;
  switch (k) {
  case 1:
    acc += 10;
  case 2:
    acc += 100;
    break;
  case 3:
    acc += 1000;
    break;
  default:
    acc = -1;
  }
  return acc;
}`)
	cases := map[int64]int64{1: 110, 2: 100, 3: 1000, 9: -1}
	for in, want := range cases {
		got, err := Call(fn, NewEnv(), map[string]any{"k": in})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("f(%d) = %v, want %d", in, got, want)
		}
	}
}

func TestQualifiedNamesAndGlobals(t *testing.T) {
	fn := parseFn(t, `unsigned f(unsigned Kind) {
  switch (Kind) {
  case RISCV::fixup_riscv_hi20:
    return ELF::R_RISCV_HI20;
  default:
    return ELF::R_RISCV_NONE;
  }
}`)
	env := NewEnv()
	env.Qualified["RISCV::fixup_riscv_hi20"] = int64(128)
	env.Qualified["ELF::R_RISCV_HI20"] = int64(26)
	env.Qualified["ELF::R_RISCV_NONE"] = int64(0)
	got, err := Call(fn, env, map[string]any{"Kind": int64(128)})
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(26) {
		t.Errorf("got %v", got)
	}
}

func TestObjectsAndMethods(t *testing.T) {
	fn := parseFn(t, `unsigned f(const MCOperand &MO) {
  if (MO.isReg()) {
    return MO.getReg() - 100;
  }
  if (MO.isImm()) {
    return static_cast<unsigned>(MO.getImm());
  }
  llvm_unreachable("bad operand");
}`)
	reg := NewObject("MO").Const("isReg", true).Const("isImm", false).Const("getReg", int64(105))
	got, err := Call(fn, NewEnv(), map[string]any{"MO": reg})
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(5) {
		t.Errorf("reg path: %v", got)
	}
	imm := NewObject("MO").Const("isReg", false).Const("isImm", true).Const("getImm", int64(42))
	got, err = Call(fn, NewEnv(), map[string]any{"MO": imm})
	if err != nil || got != int64(42) {
		t.Errorf("imm path: %v %v", got, err)
	}
	bad := NewObject("MO").Const("isReg", false).Const("isImm", false)
	_, err = Call(fn, NewEnv(), map[string]any{"MO": bad})
	var fatal Fatal
	if !errors.As(err, &fatal) {
		t.Errorf("expected Fatal, got %v", err)
	}
}

func TestForLoopAndEffects(t *testing.T) {
	fn := parseFn(t, `void emit(raw_ostream &OS, unsigned Bits, unsigned Size) {
  for (unsigned i = 0; i != Size; ++i) {
    OS.write((Bits >> (i * 8)) & 255);
  }
}`)
	var bytes []int64
	os := NewObject("OS").On("write", func(args []any) (any, error) {
		bytes = append(bytes, args[0].(int64))
		return nil, nil
	})
	_, err := Call(fn, NewEnv(), map[string]any{"OS": os, "Bits": int64(0x01020304), "Size": int64(4)})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{4, 3, 2, 1}
	for i := range want {
		if bytes[i] != want[i] {
			t.Fatalf("bytes = %v", bytes)
		}
	}
}

func TestWhileAndCompoundAssign(t *testing.T) {
	fn := parseFn(t, `int f(int n) {
  int total = 0;
  while (n > 0) {
    total += n;
    n--;
  }
  return total;
}`)
	got, err := Call(fn, NewEnv(), map[string]any{"n": int64(4)})
	if err != nil || got != int64(10) {
		t.Errorf("got %v, %v", got, err)
	}
}

func TestStringComparison(t *testing.T) {
	fn := parseFn(t, `unsigned match(StringRef Name) {
  if (Name == "sp") {
    return 2;
  }
  if (Name != "fp") {
    return 0;
  }
  return 8;
}`)
	for name, want := range map[string]int64{"sp": 2, "fp": 8, "xx": 0} {
		got, err := Call(fn, NewEnv(), map[string]any{"Name": name})
		if err != nil || got != want {
			t.Errorf("match(%q) = %v, %v", name, got, err)
		}
	}
}

func TestFreeFunctions(t *testing.T) {
	fn := parseFn(t, `int f(unsigned Imm) { return signExtend(Imm, 12); }`)
	env := NewEnv()
	env.Funcs["signExtend"] = func(args []any) (any, error) {
		v := args[0].(int64)
		bits := args[1].(int64)
		shift := 64 - uint(bits)
		return (v << shift) >> shift, nil
	}
	got, err := Call(fn, env, map[string]any{"Imm": int64(0xFFF)})
	if err != nil || got != int64(-1) {
		t.Errorf("got %v, %v", got, err)
	}
}

func TestTernaryShortCircuitUnary(t *testing.T) {
	fn := parseFn(t, `int f(int a, int b) {
  int r = a > 0 ? a : -a;
  if (a > 0 && b / a > 1) {
    r++;
  }
  if (!(b == 0) || a == 0) {
    r = r + 1;
  }
  return r;
}`)
	got, err := Call(fn, NewEnv(), map[string]any{"a": int64(-3), "b": int64(5)})
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(4) { // |-3| = 3; && short-circuits; b!=0 so +1
		t.Errorf("got %v", got)
	}
}

func TestInfiniteLoopGuard(t *testing.T) {
	fn := parseFn(t, `int f() { while (true) { } return 0; }`)
	env := NewEnv()
	env.MaxSteps = 1000
	_, err := Call(fn, env, nil)
	var re RuntimeError
	if !errors.As(err, &re) {
		t.Errorf("expected RuntimeError, got %v", err)
	}
}

func TestUnknownIdentifierError(t *testing.T) {
	fn := parseFn(t, `int f() { return Mystery; }`)
	_, err := Call(fn, NewEnv(), nil)
	var re RuntimeError
	if !errors.As(err, &re) {
		t.Errorf("expected RuntimeError, got %v", err)
	}
}

func TestBareEnumFallbackForQualified(t *testing.T) {
	fn := parseFn(t, `int f() { return X::Success; }`)
	env := NewEnv()
	env.Globals["Success"] = int64(3)
	got, err := Call(fn, env, nil)
	if err != nil || got != int64(3) {
		t.Errorf("got %v, %v", got, err)
	}
}

func TestVoidReturn(t *testing.T) {
	fn := parseFn(t, `void f(raw_ostream &OS, int x) {
  if (x == 0) {
    return;
  }
  OS.write(x);
}`)
	var wrote bool
	os := NewObject("OS").On("write", func([]any) (any, error) { wrote = true; return nil, nil })
	if _, err := Call(fn, NewEnv(), map[string]any{"OS": os, "x": int64(0)}); err != nil {
		t.Fatal(err)
	}
	if wrote {
		t.Error("early return ignored")
	}
}

func TestShiftsAndMasks(t *testing.T) {
	fn := parseFn(t, `unsigned f(unsigned Value) { return (Value + 2048) >> 12; }`)
	got, err := Call(fn, NewEnv(), map[string]any{"Value": int64(0x12345678)})
	if err != nil {
		t.Fatal(err)
	}
	want := (int64(0x12345678) + 2048) >> 12
	if got != want {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestMethodChaining(t *testing.T) {
	fn := parseFn(t, `unsigned f(const MCInst &MI) { return MI.getOperand(1).getReg(); }`)
	op := NewObject("MCOperand").Const("getReg", int64(7))
	mi := NewObject("MCInst").On("getOperand", func(args []any) (any, error) {
		if args[0] != int64(1) {
			t.Errorf("getOperand arg = %v", args[0])
		}
		return op, nil
	})
	got, err := Call(fn, NewEnv(), map[string]any{"MI": mi})
	if err != nil || got != int64(7) {
		t.Errorf("got %v, %v", got, err)
	}
}

// TestBaseAndProcs: an Env resolves what it does not bind through its
// Base, its own bindings shadow the Base's, and a proc runs in the
// caller's Env, so it sees the caller's globals and positional
// arguments bind to its parameter names.
func TestBaseAndProcs(t *testing.T) {
	base := NewEnv()
	base.Globals["Scale"] = int64(2)
	base.Globals["Bias"] = int64(1)
	base.Qualified["X::Ten"] = int64(10)
	base.Procs = map[string]*cpp.Node{
		"affine": parseFn(t, `int affine(int v) { return v * Scale + Bias; }`),
	}
	base.Funcs["affine"] = func([]any) (any, error) { return int64(-1), nil }
	fn := parseFn(t, `int f(int a) { return affine(a) + X::Ten + X::Bias; }`)

	got, err := Call(fn, &Env{Base: base}, map[string]any{"a": int64(3)})
	if err != nil || got != int64(3*2+1+10+1) {
		t.Errorf("through Base: got %v, %v; want 18", got, err)
	}
	view := &Env{Globals: map[string]any{"Scale": int64(5)}, Base: base}
	got, err = Call(fn, view, map[string]any{"a": int64(3)})
	if err != nil || got != int64(3*5+1+10+1) {
		t.Errorf("shadowed Scale: got %v, %v; want 27 (the proc must see the caller's globals)", got, err)
	}
}
