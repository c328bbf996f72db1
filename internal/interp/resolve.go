package interp

// Layout pass.  What every name is bound to — storage, owning unit, slot,
// parameter index — is the checker's verdict, carried on the tree
// (forcelang.Symbol); nothing here resolves a name.  This pass only sizes
// what the compiled executor must allocate: per unit, the shape of a
// frame (how many private scalar slots, which private arrays, how many
// parameter bindings), and the instance-wide storage the unit owns
// (shared scalars, shared arrays, asynchronous variables), all indexed by
// the checker's slots.

import (
	"fmt"

	"repro/internal/forcelang"
)

// The storage classes, under the names this back end binds them by.
const (
	// scPrivate is a per-process (or per-call) scalar slot in the frame.
	scPrivate = forcelang.PrivateScalar
	// scPrivArray is a per-process (or per-call) array slot in the frame.
	scPrivArray = forcelang.PrivateArray
	// scShared is an instance-wide atomic scalar cell.
	scShared = forcelang.SharedScalar
	// scSharedArray is an instance-wide array of atomic words.
	scSharedArray = forcelang.SharedArray
	// scAsync is an instance-wide full/empty cell (or array of cells).
	scAsync = forcelang.AsyncVar
	// scParam is a by-reference alias bound at call time.
	scParam = forcelang.Parameter
)

// unitLayout is the frame shape of one unit (the main program or a
// subroutine).
type unitLayout struct {
	// privInit is the typed-zero template of the private scalar slots;
	// slot 0 is the ident (ME) variable.
	privInit []value
	// privArrs holds the private array declarations in slot order; a nil
	// entry is a hole (a parameter's declaration, which aliases caller
	// storage and allocates nothing).
	privArrs []*forcelang.Symbol
	// params holds the parameter symbols in positional order.
	params []*forcelang.Symbol
}

// unitAlloc is the storage one unit owns instance-wide, slot-indexed;
// nil entries are holes (parameter declarations).
type unitAlloc struct {
	scalars []*forcelang.Symbol
	arrays  []*forcelang.Symbol
	asyncs  []*forcelang.Symbol
}

// resolution is the whole program laid out.
type resolution struct {
	prog   *forcelang.Program
	units  map[string]*unitLayout
	allocs map[string]*unitAlloc
}

// resolveProgram lays out a checked program.  An error means the program
// never went through forcelang.Check (Parse runs it).
func resolveProgram(prog *forcelang.Program) (*resolution, error) {
	r := &resolution{
		prog:   prog,
		units:  map[string]*unitLayout{},
		allocs: map[string]*unitAlloc{},
	}
	if err := r.addUnit("", prog.Scope); err != nil {
		return nil, err
	}
	for _, sub := range prog.Subs {
		if err := r.addUnit(sub.Name, sub.Scope); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// put grows list to cover slot, leaving holes, and records sym there.
func put(list []*forcelang.Symbol, slot int, sym *forcelang.Symbol) []*forcelang.Symbol {
	for len(list) <= slot {
		list = append(list, nil)
	}
	list[slot] = sym
	return list
}

func (r *resolution) addUnit(name string, scope *forcelang.Scope) error {
	if scope == nil {
		return fmt.Errorf("interp: unit %q has no checked scope (program not checked)", name)
	}
	// A parameter aliases caller storage: the slot its declaration took
	// in its own sequence stays a hole.
	lay := &unitLayout{params: scope.Params()}
	alloc := &unitAlloc{}
	for _, sym := range scope.Own() {
		switch sym.Storage {
		case scPrivate:
			for len(lay.privInit) <= sym.Slot {
				lay.privInit = append(lay.privInit, value{})
			}
			lay.privInit[sym.Slot] = value{t: sym.Type}
		case scPrivArray:
			lay.privArrs = put(lay.privArrs, sym.Slot, sym)
		case scShared:
			alloc.scalars = put(alloc.scalars, sym.Slot, sym)
		case scSharedArray:
			alloc.arrays = put(alloc.arrays, sym.Slot, sym)
		case scAsync:
			alloc.asyncs = put(alloc.asyncs, sym.Slot, sym)
		}
	}
	r.units[name] = lay
	r.allocs[name] = alloc
	return nil
}
