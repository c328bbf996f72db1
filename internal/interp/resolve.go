package interp

// Resolution pass: bind every name of the checked program to a (storage
// class, slot) pair before execution, so the compiled executor addresses
// index-addressed frames and per-variable shared cells instead of
// resolving strings through maps on every access.
//
// The checker already recorded each declaration's owning unit and
// per-class slot (forcelang.Decl.Unit/.Slot); this pass turns those into
// per-unit layouts — which names are visible in a unit, where each one
// lives, and what a frame of the unit must allocate — plus the
// instance-wide allocation plan for shared scalars, shared arrays and
// asynchronous variables.

import (
	"fmt"

	"repro/internal/forcelang"
	"repro/internal/plan"
	"repro/internal/shm"
)

// storageClass classifies where a resolved variable lives: the classes
// the shared DOALL proofs (internal/plan) reason about, here bound to
// this back end's storage.
type storageClass = plan.Class

const (
	// scPrivate is a per-process (or per-call) scalar slot in the frame.
	scPrivate = plan.Private
	// scPrivArray is a per-process (or per-call) array slot in the frame.
	scPrivArray = plan.PrivArray
	// scShared is an instance-wide atomic scalar cell.
	scShared = plan.Shared
	// scSharedArray is an instance-wide array of atomic words.
	scSharedArray = plan.SharedArray
	// scAsync is an instance-wide full/empty cell (or array of cells).
	scAsync = plan.Async
	// scParam is a by-reference alias bound at call time.
	scParam = plan.Param
)

// symbol is one resolved name: its storage class, the owning unit and
// slot (for instance-wide classes, or the positional index for scParam),
// and the declaration carrying type and shape.
type symbol struct {
	class storageClass
	unit  string
	slot  int
	decl  forcelang.Decl
}

// unitLayout is the resolved layout of one unit (the main program or a
// subroutine): the name→symbol bindings, the checker scope the compiler
// types expressions against, the same unit as the shared DOALL proofs
// see it, and the frame shape — how many private scalar slots and which
// private arrays a frame of this unit carries.
type unitLayout struct {
	name  string
	sub   *forcelang.Subroutine // nil for the main program
	scope *forcelang.Scope
	pu    plan.Unit
	syms  map[string]symbol

	// privInit is the typed-zero template of the private scalar slots;
	// slot 0 is the implicit ident (ME) variable.
	privInit []value
	// privArrs holds the private array declarations in slot order; an
	// empty Name marks a hole (a parameter's declaration, which aliases
	// caller storage and allocates nothing).
	privArrs []forcelang.Decl
	// params holds the parameter symbols in positional order.
	params []symbol
}

// unitAlloc is the storage one unit owns instance-wide, slot-indexed;
// entries with an empty Name are holes (parameter declarations).
type unitAlloc struct {
	scalars []forcelang.Decl
	arrays  []forcelang.Decl
	asyncs  []forcelang.Decl
}

// resolution is the whole program resolved.
type resolution struct {
	prog   *forcelang.Program
	units  map[string]*unitLayout
	allocs map[string]*unitAlloc
}

// resolveProgram resolves a checked program.  Resolution errors indicate
// an unchecked or internally inconsistent program.
func resolveProgram(prog *forcelang.Program) (*resolution, error) {
	r := &resolution{
		prog:   prog,
		units:  map[string]*unitLayout{},
		allocs: map[string]*unitAlloc{},
	}
	g, err := forcelang.GlobalScope(prog)
	if err != nil {
		return nil, fmt.Errorf("interp: resolving main program: %w", err)
	}
	if err := r.addUnit("", nil, g); err != nil {
		return nil, err
	}
	for _, sub := range prog.Subs {
		sc, err := forcelang.SubScope(prog, sub)
		if err != nil {
			return nil, fmt.Errorf("interp: resolving %s: %w", sub.Name, err)
		}
		if err := r.addUnit(sub.Name, sub, sc); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// put grows list to cover slot and records d there.
func put(list []forcelang.Decl, slot int, d forcelang.Decl) []forcelang.Decl {
	for len(list) <= slot {
		list = append(list, forcelang.Decl{})
	}
	list[slot] = d
	return list
}

func (r *resolution) addUnit(name string, sub *forcelang.Subroutine, scope *forcelang.Scope) error {
	lay := &unitLayout{name: name, sub: sub, scope: scope, syms: map[string]symbol{},
		pu: plan.Unit{Prog: r.prog, Scope: scope, Sub: sub}}
	alloc := &unitAlloc{}
	paramPos := map[string]int{}
	if sub != nil {
		lay.params = make([]symbol, len(sub.Params))
		for i, p := range sub.Params {
			paramPos[p] = i
		}
	}
	// ME is private scalar slot 0 of every unit.
	lay.privInit = []value{{t: forcelang.TInt}}
	for _, d := range scope.Decls() {
		var sym symbol
		isParam := false
		if i, ok := paramPos[d.Name]; ok {
			sym = symbol{class: scParam, slot: i, decl: d}
			lay.params[i] = sym
			isParam = true
		} else {
			sym = symbol{class: plan.ClassOf(d), unit: d.Unit, slot: d.Slot, decl: d}
		}
		lay.syms[d.Name] = sym

		// Frame shape: every private slot the checker numbered must be
		// covered, parameter declarations as holes (they alias caller
		// storage and allocate nothing).
		if d.Unit == name && d.Class == shm.Private {
			if len(d.Dims) > 0 {
				hole := d
				if isParam {
					hole = forcelang.Decl{}
				}
				lay.privArrs = put(lay.privArrs, d.Slot, hole)
			} else {
				for len(lay.privInit) <= d.Slot {
					lay.privInit = append(lay.privInit, value{})
				}
				lay.privInit[d.Slot] = value{t: d.Type}
			}
		}
		// Instance-wide allocation plan: record only declarations this
		// unit owns (inherited COMMON-like decls belong to the main unit).
		if d.Unit == name && !isParam {
			switch {
			case d.Class == shm.Async:
				alloc.asyncs = put(alloc.asyncs, d.Slot, d)
			case d.Class == shm.Shared && len(d.Dims) > 0:
				alloc.arrays = put(alloc.arrays, d.Slot, d)
			case d.Class == shm.Shared:
				alloc.scalars = put(alloc.scalars, d.Slot, d)
			}
		}
	}
	// NP and ME are bound last, shadowing same-named declarations —
	// matching the tree walker, which installs them after the unit's
	// declarations when it builds a frame.
	npName := r.prog.NPVar
	meName := r.prog.MeVar
	lay.syms[npName] = symbol{
		class: scShared, unit: "", slot: 0,
		decl: forcelang.Decl{Class: shm.Shared, Type: forcelang.TInt, Name: npName, Unit: "", Slot: 0},
	}
	lay.syms[meName] = symbol{
		class: scPrivate, unit: name, slot: 0,
		decl: forcelang.Decl{Class: shm.Private, Type: forcelang.TInt, Name: meName, Unit: name, Slot: 0},
	}
	if sub != nil {
		for i, p := range sub.Params {
			if lay.params[i].decl.Name == "" {
				return fmt.Errorf("interp: resolving %s: parameter %s has no declaration", name, p)
			}
		}
	}
	r.units[name] = lay
	r.allocs[name] = alloc
	return nil
}

// lookup resolves a name in a unit layout.
func (lay *unitLayout) lookup(name string, line int) symbol {
	sym, ok := lay.syms[name]
	if !ok {
		panic(rtErrf(line, "undefined variable %s", name))
	}
	return sym
}
