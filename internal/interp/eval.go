package interp

import (
	"strconv"
	"strings"

	"vega/internal/cpp"
)

// eval evaluates an expression node.
func (f *frame) eval(e *cpp.Node) (any, error) {
	if err := f.tick(); err != nil {
		return nil, err
	}
	switch e.Kind {
	case cpp.KindNumber:
		return parseNumber(e.Value)
	case cpp.KindString:
		return unquote(e.Value), nil
	case cpp.KindChar:
		s := e.Value
		if len(s) >= 3 {
			return int64(s[1]), nil
		}
		return int64(0), nil
	case cpp.KindIdent:
		return f.lookup(e.Value)
	case cpp.KindQualified:
		if v, ok := f.env.qualified(e.Value); ok {
			return v, nil
		}
		// Fall back to the last component as a global (enum members are
		// often usable unqualified).
		parts := strings.Split(e.Value, "::")
		if v, ok := f.env.global(parts[len(parts)-1]); ok {
			return v, nil
		}
		return nil, errf("unknown qualified name %q", e.Value)
	case cpp.KindBinary:
		return f.evalBinary(e)
	case cpp.KindUnary:
		return f.evalUnary(e)
	case cpp.KindPostfix:
		return f.evalIncDec(e.Children[0], e.Value, false)
	case cpp.KindAssign:
		return f.evalAssign(e)
	case cpp.KindTernary:
		cond, err := f.evalBool(e.Children[0])
		if err != nil {
			return nil, err
		}
		if cond {
			return f.eval(e.Children[1])
		}
		return f.eval(e.Children[2])
	case cpp.KindCall:
		return f.evalCall(e)
	case cpp.KindMember:
		base, err := f.eval(e.Children[0])
		if err != nil {
			return nil, err
		}
		obj, ok := base.(*Object)
		if !ok {
			return nil, errf("member access on non-object")
		}
		if v, ok := obj.Fields[e.Children[1].Value]; ok {
			return v, nil
		}
		return nil, errf("object %s has no field %q", obj.Name, e.Children[1].Value)
	case cpp.KindCast:
		return f.eval(e.Children[1])
	case cpp.KindIndex:
		return nil, errf("array indexing unsupported")
	default:
		return nil, errf("cannot evaluate %v", e.Kind)
	}
}

func parseNumber(s string) (any, error) {
	s = strings.TrimRight(s, "uUlLfF")
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err := strconv.ParseInt(s[2:], 16, 64)
		if err != nil {
			return nil, errf("bad hex literal %q", s)
		}
		return v, nil
	}
	if strings.HasPrefix(s, "0b") || strings.HasPrefix(s, "0B") {
		v, err := strconv.ParseInt(s[2:], 2, 64)
		if err != nil {
			return nil, errf("bad binary literal %q", s)
		}
		return v, nil
	}
	if strings.Contains(s, ".") {
		// The backend subset treats floats as ints of their truncation.
		fv, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, errf("bad float literal %q", s)
		}
		return int64(fv), nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return nil, errf("bad literal %q", s)
	}
	return v, nil
}

func (f *frame) lookup(name string) (any, error) {
	if v, ok := f.vars[name]; ok {
		return v, nil
	}
	switch name {
	case "true":
		return true, nil
	case "false":
		return false, nil
	case "nullptr":
		return nil, nil
	}
	if v, ok := f.env.global(name); ok {
		return v, nil
	}
	return nil, errf("unknown identifier %q", name)
}

func (f *frame) evalBool(e *cpp.Node) (bool, error) {
	v, err := f.eval(e)
	if err != nil {
		return false, err
	}
	b, ok := toBool(v)
	if !ok {
		return false, errf("non-boolean condition")
	}
	return b, nil
}

func (f *frame) evalBinary(e *cpp.Node) (any, error) {
	op := e.Value
	// Short-circuit operators first.
	if op == "&&" || op == "||" {
		l, err := f.evalBool(e.Children[0])
		if err != nil {
			return nil, err
		}
		if op == "&&" && !l {
			return false, nil
		}
		if op == "||" && l {
			return true, nil
		}
		return f.evalBool(e.Children[1])
	}
	l, err := f.eval(e.Children[0])
	if err != nil {
		return nil, err
	}
	r, err := f.eval(e.Children[1])
	if err != nil {
		return nil, err
	}
	// String equality.
	if ls, ok := l.(string); ok {
		if rs, ok2 := r.(string); ok2 {
			switch op {
			case "==":
				return ls == rs, nil
			case "!=":
				return ls != rs, nil
			case "+":
				return ls + rs, nil
			}
			return nil, errf("unsupported string operator %q", op)
		}
	}
	li, lok := toInt(l)
	ri, rok := toInt(r)
	if !lok || !rok {
		switch op {
		case "==":
			return equalValues(l, r), nil
		case "!=":
			return !equalValues(l, r), nil
		}
		return nil, errf("non-integer operands for %q", op)
	}
	switch op {
	case "+":
		return li + ri, nil
	case "-":
		return li - ri, nil
	case "*":
		return li * ri, nil
	case "/":
		if ri == 0 {
			return nil, Fatal{Msg: "division by zero"}
		}
		return li / ri, nil
	case "%":
		if ri == 0 {
			return nil, Fatal{Msg: "modulo by zero"}
		}
		return li % ri, nil
	case "<<":
		return li << uint(ri&63), nil
	case ">>":
		return li >> uint(ri&63), nil
	case "&":
		return li & ri, nil
	case "|":
		return li | ri, nil
	case "^":
		return li ^ ri, nil
	case "==":
		return li == ri, nil
	case "!=":
		return li != ri, nil
	case "<":
		return li < ri, nil
	case ">":
		return li > ri, nil
	case "<=":
		return li <= ri, nil
	case ">=":
		return li >= ri, nil
	}
	return nil, errf("unknown operator %q", op)
}

func (f *frame) evalUnary(e *cpp.Node) (any, error) {
	if e.Value == "++" || e.Value == "--" {
		return f.evalIncDec(e.Children[0], e.Value, true)
	}
	v, err := f.eval(e.Children[0])
	if err != nil {
		return nil, err
	}
	switch e.Value {
	case "!":
		b, ok := toBool(v)
		if !ok {
			return nil, errf("! on non-boolean")
		}
		return !b, nil
	case "-":
		i, ok := toInt(v)
		if !ok {
			return nil, errf("- on non-integer")
		}
		return -i, nil
	case "+":
		return v, nil
	case "~":
		i, ok := toInt(v)
		if !ok {
			return nil, errf("~ on non-integer")
		}
		return ^i, nil
	case "*", "&":
		// Pointers degenerate to their referents in the subset.
		return v, nil
	case "sizeof":
		return int64(4), nil
	}
	return nil, errf("unknown unary operator %q", e.Value)
}

// evalIncDec handles ++x / x++ / --x / x--; pre selects the returned value.
func (f *frame) evalIncDec(target *cpp.Node, op string, pre bool) (any, error) {
	if target.Kind != cpp.KindIdent {
		return nil, errf("++/-- on non-variable")
	}
	cur, err := f.lookup(target.Value)
	if err != nil {
		return nil, err
	}
	i, ok := toInt(cur)
	if !ok {
		return nil, errf("++/-- on non-integer")
	}
	next := i + 1
	if strings.HasPrefix(op, "--") || op == "--" {
		next = i - 1
	}
	f.vars[target.Value] = next
	if pre {
		return next, nil
	}
	return i, nil
}

func (f *frame) evalAssign(e *cpp.Node) (any, error) {
	lhs := e.Children[0]
	if lhs.Kind != cpp.KindIdent {
		return nil, errf("assignment to non-variable")
	}
	rhs, err := f.eval(e.Children[1])
	if err != nil {
		return nil, err
	}
	if e.Value == "=" {
		f.vars[lhs.Value] = rhs
		return rhs, nil
	}
	cur, err := f.lookup(lhs.Value)
	if err != nil {
		return nil, err
	}
	li, lok := toInt(cur)
	ri, rok := toInt(rhs)
	if !lok || !rok {
		return nil, errf("compound assignment on non-integers")
	}
	var v int64
	switch e.Value {
	case "+=":
		v = li + ri
	case "-=":
		v = li - ri
	case "*=":
		v = li * ri
	case "/=":
		if ri == 0 {
			return nil, Fatal{Msg: "division by zero"}
		}
		v = li / ri
	case "%=":
		if ri == 0 {
			return nil, Fatal{Msg: "modulo by zero"}
		}
		v = li % ri
	case "&=":
		v = li & ri
	case "|=":
		v = li | ri
	case "^=":
		v = li ^ ri
	case "<<=":
		v = li << uint(ri&63)
	case ">>=":
		v = li >> uint(ri&63)
	default:
		return nil, errf("unknown assignment %q", e.Value)
	}
	f.vars[lhs.Value] = v
	return v, nil
}

func (f *frame) evalCall(e *cpp.Node) (any, error) {
	callee := e.Children[0]
	args := make([]any, 0, len(e.Children)-1)
	for _, a := range e.Children[1:] {
		v, err := f.eval(a)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	switch callee.Kind {
	case cpp.KindIdent:
		name := callee.Value
		switch name {
		case "report_fatal_error", "llvm_unreachable":
			msg := ""
			if len(args) > 0 {
				if s, ok := args[0].(string); ok {
					msg = s
				}
			}
			return nil, Fatal{Msg: msg}
		}
		if ret, ok, err := f.callFree(name, args); ok {
			return ret, err
		}
		return nil, errf("unknown function %q", name)
	case cpp.KindMember:
		base, err := f.eval(callee.Children[0])
		if err != nil {
			return nil, err
		}
		obj, ok := base.(*Object)
		if !ok {
			return nil, errf("method call on non-object")
		}
		mname := callee.Children[1].Value
		m, ok := obj.Methods[mname]
		if !ok {
			return nil, errf("object %s has no method %q", obj.Name, mname)
		}
		return m(args)
	case cpp.KindQualified:
		// Qualified free function, e.g. Helper::run — resolve by the last
		// component.
		parts := strings.Split(callee.Value, "::")
		if ret, ok, err := f.callFree(parts[len(parts)-1], args); ok {
			return ret, err
		}
		return nil, errf("unknown function %q", callee.Value)
	default:
		return nil, errf("cannot call %v", callee.Kind)
	}
}

// callFree calls the free function name resolves to, searching each
// environment level's Procs, then its Funcs, before its Base. ok is
// false when nothing binds name.
func (f *frame) callFree(name string, args []any) (ret any, ok bool, err error) {
	for e := f.env; e != nil; e = e.Base {
		if fn, found := e.Procs[name]; found {
			ret, err = Call(fn, f.env, bindArgs(fn, args))
			return ret, true, err
		}
		if fn, found := e.Funcs[name]; found {
			ret, err = fn(args)
			return ret, true, err
		}
	}
	return nil, false, nil
}

// bindArgs maps positional arguments to a function's parameter names.
func bindArgs(fn *cpp.Node, args []any) map[string]any {
	out := make(map[string]any)
	for i, p := range fn.Children[1].Children {
		if i < len(args) && p.Value != "" {
			out[p.Value] = args[i]
		}
	}
	return out
}
