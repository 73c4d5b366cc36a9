package sparql

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"strings"

	"github.com/lodviz/lodviz/internal/rdf"
)

// Binding maps variable names to terms. Unbound variables are absent.
type Binding map[string]rdf.Term

// clone copies a binding.
func (b Binding) clone() Binding {
	c := make(Binding, len(b)+2)
	for k, v := range b {
		c[k] = v
	}
	return c
}

// errExpr signals an expression evaluation error; per SPARQL semantics a
// FILTER whose expression errors simply rejects the solution.
var errExpr = errors.New("sparql: expression error")

// compareTerms applies a comparison operator to two terms: '=' and '!='
// by termsEqual, the ordering operators by numeric, then temporal, then
// lexical order of two literals (an error for anything else).
func compareTerms(op string, l, r rdf.Term) (bool, error) {
	// RDF term equality handles IRIs and exact literals.
	if op == "=" || op == "!=" {
		eq, err := termsEqual(l, r)
		if err != nil {
			return false, err
		}
		return eq != (op == "!="), nil
	}
	ll, lok := l.(rdf.Literal)
	rl, rok := r.(rdf.Literal)
	if !lok || !rok {
		return false, fmt.Errorf("%w: ordering comparison requires literals", errExpr)
	}
	if lf, ok := ll.Float(); ok {
		if rf, ok := rl.Float(); ok {
			return cmpHolds(op, cmpFloat(lf, rf)), nil
		}
		return false, fmt.Errorf("%w: numeric vs non-numeric comparison", errExpr)
	}
	if lt, ok := ll.Time(); ok {
		if rt, ok := rl.Time(); ok {
			c := 0
			if lt.Before(rt) {
				c = -1
			} else if lt.After(rt) {
				c = 1
			}
			return cmpHolds(op, c), nil
		}
		return false, fmt.Errorf("%w: temporal vs non-temporal comparison", errExpr)
	}
	// Fall back to string comparison for stringish literals.
	return cmpHolds(op, strings.Compare(ll.Lexical, rl.Lexical)), nil
}

// termsEqual implements SPARQL '=': value equality for literals with known
// value spaces, term equality otherwise.
func termsEqual(l, r rdf.Term) (bool, error) {
	if l == r {
		return true, nil
	}
	ll, lok := l.(rdf.Literal)
	rl, rok := r.(rdf.Literal)
	if !lok || !rok {
		return false, nil
	}
	if lf, ok := ll.Float(); ok {
		if rf, ok := rl.Float(); ok {
			return lf == rf, nil
		}
	}
	if lt, ok := ll.Time(); ok {
		if rt, ok := rl.Time(); ok {
			return lt.Equal(rt), nil
		}
	}
	return false, nil
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpHolds(op string, c int) bool {
	switch op {
	case "<":
		return c < 0
	case ">":
		return c > 0
	case "<=":
		return c <= 0
	case ">=":
		return c >= 0
	}
	return false
}

func numeric(t rdf.Term) (float64, bool) {
	l, ok := t.(rdf.Literal)
	if !ok {
		return 0, false
	}
	return l.Float()
}

// numResult picks a numeric result datatype: integer when both operands are
// integers and the value is integral, double otherwise.
func numResult(v float64, l, r rdf.Term) rdf.Term {
	li, lok := l.(rdf.Literal)
	ri, rok := r.(rdf.Literal)
	if lok && rok {
		if _, ok1 := li.Int(); ok1 {
			if _, ok2 := ri.Int(); ok2 && v == math.Trunc(v) {
				return rdf.NewInteger(int64(v))
			}
		}
	}
	return rdf.NewDouble(v)
}

func applyBuiltin(name string, args []rdf.Term) (rdf.Term, error) {
	str := func(i int) (string, error) {
		switch t := args[i].(type) {
		case rdf.Literal:
			return t.Lexical, nil
		case rdf.IRI:
			return string(t), nil
		default:
			return "", fmt.Errorf("%w: %s: no string form", errExpr, name)
		}
	}
	num := func(i int) (float64, error) {
		f, ok := numeric(args[i])
		if !ok {
			return 0, fmt.Errorf("%w: %s: non-numeric argument", errExpr, name)
		}
		return f, nil
	}
	switch name {
	case "STR":
		s, err := str(0)
		if err != nil {
			return nil, err
		}
		return rdf.NewLiteral(s), nil
	case "LANG":
		l, ok := args[0].(rdf.Literal)
		if !ok {
			return nil, fmt.Errorf("%w: LANG of non-literal", errExpr)
		}
		return rdf.NewLiteral(l.Lang), nil
	case "DATATYPE":
		l, ok := args[0].(rdf.Literal)
		if !ok {
			return nil, fmt.Errorf("%w: DATATYPE of non-literal", errExpr)
		}
		return l.Datatype, nil
	case "ISIRI", "ISURI":
		return rdf.NewBoolean(args[0].Kind() == rdf.KindIRI), nil
	case "ISBLANK":
		return rdf.NewBoolean(args[0].Kind() == rdf.KindBlank), nil
	case "ISLITERAL":
		return rdf.NewBoolean(args[0].Kind() == rdf.KindLiteral), nil
	case "ISNUMERIC":
		_, ok := numeric(args[0])
		return rdf.NewBoolean(ok), nil
	case "STRLEN":
		s, err := str(0)
		if err != nil {
			return nil, err
		}
		return rdf.NewInteger(int64(len([]rune(s)))), nil
	case "UCASE":
		s, err := str(0)
		if err != nil {
			return nil, err
		}
		return rdf.NewLiteral(strings.ToUpper(s)), nil
	case "LCASE":
		s, err := str(0)
		if err != nil {
			return nil, err
		}
		return rdf.NewLiteral(strings.ToLower(s)), nil
	case "ABS":
		f, err := num(0)
		if err != nil {
			return nil, err
		}
		return numResult(math.Abs(f), args[0], args[0]), nil
	case "CEIL":
		f, err := num(0)
		if err != nil {
			return nil, err
		}
		return rdf.NewInteger(int64(math.Ceil(f))), nil
	case "FLOOR":
		f, err := num(0)
		if err != nil {
			return nil, err
		}
		return rdf.NewInteger(int64(math.Floor(f))), nil
	case "ROUND":
		f, err := num(0)
		if err != nil {
			return nil, err
		}
		return rdf.NewInteger(int64(math.Round(f))), nil
	case "YEAR", "MONTH", "DAY":
		l, ok := args[0].(rdf.Literal)
		if !ok {
			return nil, fmt.Errorf("%w: %s of non-literal", errExpr, name)
		}
		tm, ok := l.Time()
		if !ok {
			return nil, fmt.Errorf("%w: %s of non-temporal", errExpr, name)
		}
		switch name {
		case "YEAR":
			return rdf.NewInteger(int64(tm.Year())), nil
		case "MONTH":
			return rdf.NewInteger(int64(tm.Month())), nil
		default:
			return rdf.NewInteger(int64(tm.Day())), nil
		}
	case "REGEX":
		s, err := str(0)
		if err != nil {
			return nil, err
		}
		pat, err := str(1)
		if err != nil {
			return nil, err
		}
		if len(args) == 3 {
			flags, err := str(2)
			if err != nil {
				return nil, err
			}
			if strings.Contains(flags, "i") {
				pat = "(?i)" + pat
			}
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, fmt.Errorf("%w: bad regex: %v", errExpr, err)
		}
		return rdf.NewBoolean(re.MatchString(s)), nil
	case "STRSTARTS":
		a, err1 := str(0)
		p, err2 := str(1)
		if err1 != nil || err2 != nil {
			return nil, errExpr
		}
		return rdf.NewBoolean(strings.HasPrefix(a, p)), nil
	case "STRENDS":
		a, err1 := str(0)
		p, err2 := str(1)
		if err1 != nil || err2 != nil {
			return nil, errExpr
		}
		return rdf.NewBoolean(strings.HasSuffix(a, p)), nil
	case "CONTAINS":
		a, err1 := str(0)
		p, err2 := str(1)
		if err1 != nil || err2 != nil {
			return nil, errExpr
		}
		return rdf.NewBoolean(strings.Contains(a, p)), nil
	case "LANGMATCHES":
		tag, err1 := str(0)
		rng, err2 := str(1)
		if err1 != nil || err2 != nil {
			return nil, errExpr
		}
		if rng == "*" {
			return rdf.NewBoolean(tag != ""), nil
		}
		tag, rng = strings.ToLower(tag), strings.ToLower(rng)
		return rdf.NewBoolean(tag == rng || strings.HasPrefix(tag, rng+"-")), nil
	case "SUBSTR":
		s, err := str(0)
		if err != nil {
			return nil, err
		}
		start, err := num(1)
		if err != nil {
			return nil, err
		}
		runes := []rune(s)
		// SPARQL SUBSTR is 1-based.
		from := int(start) - 1
		if from < 0 {
			from = 0
		}
		if from > len(runes) {
			from = len(runes)
		}
		to := len(runes)
		if len(args) == 3 {
			n, err := num(2)
			if err != nil {
				return nil, err
			}
			if t := from + int(n); t < to {
				to = t
			}
		}
		if to < from {
			to = from
		}
		return rdf.NewLiteral(string(runes[from:to])), nil
	case "REPLACE":
		s, err1 := str(0)
		pat, err2 := str(1)
		rep, err3 := str(2)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, errExpr
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, fmt.Errorf("%w: bad regex: %v", errExpr, err)
		}
		return rdf.NewLiteral(re.ReplaceAllString(s, rep)), nil
	case "CONCAT":
		var b strings.Builder
		for i := range args {
			s, err := str(i)
			if err != nil {
				return nil, err
			}
			b.WriteString(s)
		}
		return rdf.NewLiteral(b.String()), nil
	default:
		return nil, fmt.Errorf("%w: unsupported builtin %s", errExpr, name)
	}
}
