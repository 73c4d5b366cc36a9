package sparql

import (
	"fmt"
	"strings"

	"github.com/lodviz/lodviz/internal/rdf"
)

// The reference expression evaluator: a direct tree-walking interpreter of
// SPARQL expressions and aggregates over term-space bindings — the engine's
// original evaluator, kept in the tests as the oracle the compiled
// evaluator (compile.go) is checked against (FuzzExprDifferential,
// TestCompiledMatchesInterpreter).

// evalExpr evaluates an expression against a binding.
func evalExpr(e Expr, b Binding) (rdf.Term, error) {
	switch ex := e.(type) {
	case ExVar:
		t, ok := b[ex.Name]
		if !ok {
			return nil, fmt.Errorf("%w: unbound variable ?%s", errExpr, ex.Name)
		}
		return t, nil
	case ExTerm:
		return ex.Term, nil
	case ExUnary:
		return evalUnary(ex, b)
	case ExBinary:
		return evalBinary(ex, b)
	case ExCall:
		return evalCall(ex, b)
	case ExAggregate:
		return nil, fmt.Errorf("%w: aggregate outside grouped query", errExpr)
	default:
		return nil, fmt.Errorf("%w: unknown expression %T", errExpr, e)
	}
}

// evalBool evaluates an expression to its effective boolean value.
func evalBool(e Expr, b Binding) (bool, error) {
	t, err := evalExpr(e, b)
	if err != nil {
		return false, err
	}
	v, ok := rdf.EffectiveBoolean(t)
	if !ok {
		return false, fmt.Errorf("%w: no effective boolean value", errExpr)
	}
	return v, nil
}

func evalUnary(ex ExUnary, b Binding) (rdf.Term, error) {
	switch ex.Op {
	case "!":
		v, err := evalBool(ex.Expr, b)
		if err != nil {
			return nil, err
		}
		return rdf.NewBoolean(!v), nil
	case "-":
		t, err := evalExpr(ex.Expr, b)
		if err != nil {
			return nil, err
		}
		f, ok := numeric(t)
		if !ok {
			return nil, fmt.Errorf("%w: unary minus on non-numeric", errExpr)
		}
		return numResult(-f, t, t), nil
	default:
		return nil, fmt.Errorf("%w: unknown unary %q", errExpr, ex.Op)
	}
}

func evalBinary(ex ExBinary, b Binding) (rdf.Term, error) {
	switch ex.Op {
	case "||":
		// SPARQL logical-or: true if either side is true even if the other
		// errors.
		lv, lerr := evalBool(ex.Left, b)
		rv, rerr := evalBool(ex.Right, b)
		switch {
		case lerr == nil && rerr == nil:
			return rdf.NewBoolean(lv || rv), nil
		case lerr == nil && lv:
			return rdf.NewBoolean(true), nil
		case rerr == nil && rv:
			return rdf.NewBoolean(true), nil
		default:
			return nil, fmt.Errorf("%w: || operand error", errExpr)
		}
	case "&&":
		lv, lerr := evalBool(ex.Left, b)
		rv, rerr := evalBool(ex.Right, b)
		switch {
		case lerr == nil && rerr == nil:
			return rdf.NewBoolean(lv && rv), nil
		case lerr == nil && !lv:
			return rdf.NewBoolean(false), nil
		case rerr == nil && !rv:
			return rdf.NewBoolean(false), nil
		default:
			return nil, fmt.Errorf("%w: && operand error", errExpr)
		}
	}
	l, err := evalExpr(ex.Left, b)
	if err != nil {
		return nil, err
	}
	r, err := evalExpr(ex.Right, b)
	if err != nil {
		return nil, err
	}
	switch ex.Op {
	case "=", "!=", "<", ">", "<=", ">=":
		ok, err := compareTerms(ex.Op, l, r)
		if err != nil {
			return nil, err
		}
		return rdf.NewBoolean(ok), nil
	case "+", "-", "*", "/":
		lf, lok := numeric(l)
		rf, rok := numeric(r)
		if !lok || !rok {
			return nil, fmt.Errorf("%w: arithmetic on non-numeric", errExpr)
		}
		var v float64
		switch ex.Op {
		case "+":
			v = lf + rf
		case "-":
			v = lf - rf
		case "*":
			v = lf * rf
		case "/":
			if rf == 0 {
				return nil, fmt.Errorf("%w: division by zero", errExpr)
			}
			v = lf / rf
		}
		return numResult(v, l, r), nil
	default:
		return nil, fmt.Errorf("%w: unknown operator %q", errExpr, ex.Op)
	}
}

func evalCall(ex ExCall, b Binding) (rdf.Term, error) {
	// BOUND and COALESCE/IF treat argument errors specially.
	switch ex.Name {
	case "BOUND":
		v, ok := ex.Args[0].(ExVar)
		if !ok {
			return nil, fmt.Errorf("%w: BOUND requires a variable", errExpr)
		}
		_, bound := b[v.Name]
		return rdf.NewBoolean(bound), nil
	case "COALESCE":
		for _, a := range ex.Args {
			if t, err := evalExpr(a, b); err == nil {
				return t, nil
			}
		}
		return nil, fmt.Errorf("%w: all COALESCE branches errored", errExpr)
	case "IF":
		c, err := evalBool(ex.Args[0], b)
		if err != nil {
			return nil, err
		}
		if c {
			return evalExpr(ex.Args[1], b)
		}
		return evalExpr(ex.Args[2], b)
	}
	args := make([]rdf.Term, len(ex.Args))
	for i, a := range ex.Args {
		t, err := evalExpr(a, b)
		if err != nil {
			return nil, err
		}
		args[i] = t
	}
	return applyBuiltin(ex.Name, args)
}

// evalAggExpr evaluates an expression that may contain aggregates over a
// group's rows. Non-aggregate subexpressions are evaluated against rep,
// the representative binding holding the group keys.
func evalAggExpr(e Expr, rows []Binding, rep Binding) (rdf.Term, error) {
	switch ex := e.(type) {
	case ExAggregate:
		return evalAggregate(ex, rows)
	case ExVar:
		t, ok := rep[ex.Name]
		if !ok {
			return nil, fmt.Errorf("%w: ?%s not a group key", errExpr, ex.Name)
		}
		return t, nil
	case ExTerm:
		return ex.Term, nil
	case ExUnary:
		inner, err := evalAggExpr(ex.Expr, rows, rep)
		if err != nil {
			return nil, err
		}
		return evalUnary(ExUnary{Op: ex.Op, Expr: ExTerm{Term: inner}}, rep)
	case ExBinary:
		l, err := evalAggExpr(ex.Left, rows, rep)
		if err != nil {
			return nil, err
		}
		r, err := evalAggExpr(ex.Right, rows, rep)
		if err != nil {
			return nil, err
		}
		return evalBinary(ExBinary{Op: ex.Op, Left: ExTerm{Term: l}, Right: ExTerm{Term: r}}, rep)
	case ExCall:
		args := make([]Expr, len(ex.Args))
		for i, a := range ex.Args {
			t, err := evalAggExpr(a, rows, rep)
			if err != nil {
				return nil, err
			}
			args[i] = ExTerm{Term: t}
		}
		return evalCall(ExCall{Name: ex.Name, Args: args}, rep)
	default:
		return nil, fmt.Errorf("%w: unsupported expression in aggregate context", errExpr)
	}
}

// evalAggregate computes one aggregate over the group's rows.
func evalAggregate(agg ExAggregate, rows []Binding) (rdf.Term, error) {
	// Collect the argument values (skipping error/unbound rows, per spec).
	var values []rdf.Term
	if agg.Star {
		values = make([]rdf.Term, len(rows))
		for i := range rows {
			values[i] = rdf.NewInteger(int64(i)) // placeholders; COUNT(*) counts rows
		}
	} else {
		for _, r := range rows {
			if t, err := evalExpr(agg.Arg, r); err == nil {
				values = append(values, t)
			}
		}
	}
	if agg.Distinct {
		seen := map[rdf.Term]struct{}{}
		uniq := values[:0:0]
		for _, v := range values {
			if _, dup := seen[v]; !dup {
				seen[v] = struct{}{}
				uniq = append(uniq, v)
			}
		}
		values = uniq
	}
	switch agg.Name {
	case "COUNT":
		return rdf.NewInteger(int64(len(values))), nil
	case "SUM":
		sum := 0.0
		allInt := true
		for _, v := range values {
			f, ok := numeric(v)
			if !ok {
				return nil, fmt.Errorf("%w: SUM over non-numeric", errExpr)
			}
			if l, isLit := v.(rdf.Literal); isLit {
				if _, isInt := l.Int(); !isInt {
					allInt = false
				}
			}
			sum += f
		}
		if allInt {
			return rdf.NewInteger(int64(sum)), nil
		}
		return rdf.NewDouble(sum), nil
	case "AVG":
		if len(values) == 0 {
			return rdf.NewInteger(0), nil
		}
		sum := 0.0
		for _, v := range values {
			f, ok := numeric(v)
			if !ok {
				return nil, fmt.Errorf("%w: AVG over non-numeric", errExpr)
			}
			sum += f
		}
		return rdf.NewDouble(sum / float64(len(values))), nil
	case "MIN", "MAX":
		if len(values) == 0 {
			return nil, fmt.Errorf("%w: %s of empty group", errExpr, agg.Name)
		}
		best := values[0]
		for _, v := range values[1:] {
			c := rdf.Compare(v, best)
			if (agg.Name == "MIN" && c < 0) || (agg.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	case "SAMPLE":
		if len(values) == 0 {
			return nil, fmt.Errorf("%w: SAMPLE of empty group", errExpr)
		}
		return values[0], nil
	case "GROUP_CONCAT":
		var b strings.Builder
		for i, v := range values {
			if i > 0 {
				b.WriteString(agg.Separator)
			}
			switch t := v.(type) {
			case rdf.Literal:
				b.WriteString(t.Lexical)
			case rdf.IRI:
				b.WriteString(string(t))
			default:
				b.WriteString(v.String())
			}
		}
		return rdf.NewLiteral(b.String()), nil
	default:
		return nil, fmt.Errorf("%w: unknown aggregate %s", errExpr, agg.Name)
	}
}
