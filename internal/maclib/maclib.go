// Package maclib contains the Force macro layers themselves: the sed rules
// that turn Force syntax into parameterized function macros, the
// machine-independent statement-macro layer, and one machine-dependent
// low-level layer per target machine (paper §4.2, §4.3).
//
// This is the textual half of the reproduction: Expand runs the paper's
// actual pipeline — stream-edit, then two-level macro expansion — over a
// Force source file and yields Fortran-shaped text.  With the "generic"
// machine layer (which defines nothing) the low-level macros lock, unlock
// and force_environment stay symbolic, which is exactly how the paper
// prints its Selfsched DO expansion listing; selecting a real machine
// layer rewrites only those calls, demonstrating the portability
// architecture.
//
// The machine layers' Fortran spellings (CALL S_LOCK, CALL LOCKON, ...)
// are reconstructions: the paper names the lock categories but not the
// vendor entry points.
package maclib

import (
	"fmt"

	"repro/internal/m4lite"
	"repro/internal/sedlite"
)

// SedRules is the first preprocessor pass: Force statement syntax to
// parameterized macro calls, one rule per statement form.  Rules are
// case-insensitive, as the Force accepted both spellings.
const SedRules = `
# Program structure
s/^ *Force +([A-Za-z][A-Za-z0-9_]*) +of +([A-Za-z][A-Za-z0-9_]*) +ident +([A-Za-z][A-Za-z0-9_]*) *$/force_main(\1,\2,\3)/i
s/^ *Forcesub +([A-Za-z][A-Za-z0-9_]*) *\(([^)]*)\) *$/forcesub(\1,` + "`\\2'" + `)/i
s/^ *Externf +([A-Za-z][A-Za-z0-9_]*) *$/externf(\1)/i
s/^ *End declarations *$/end_declarations/i
s/^ *Join *$/join_force/i

# Variable classification.  The declaration tail is quoted so commas in
# dimension or variable lists survive argument collection.
s/^ *Shared +([A-Za-z]+) +(.*)$/shared_decl(\1,` + "`\\2'" + `)/i
s/^ *Private +([A-Za-z]+) +(.*)$/private_decl(\1,` + "`\\2'" + `)/i
s/^ *Async +([A-Za-z]+) +(.*)$/async_decl(\1,` + "`\\2'" + `)/i

# Work distribution
s/^ *Selfsched +DO +([0-9]+) +([A-Za-z][A-Za-z0-9_]*) *= *([^,]+?) *, *([^,]+?) *, *([^,]+?) *$/selfsched_do(\1,\2,\3,\4,\5)/i
s/^ *Selfsched +DO +([0-9]+) +([A-Za-z][A-Za-z0-9_]*) *= *([^,]+?) *, *([^,]+?) *$/selfsched_do(\1,\2,\3,\4,1)/i
s/^ *([0-9]+) +End +Selfsched +DO *$/end_selfsched_do(\1)/i
s/^ *Presched +DO +([0-9]+) +([A-Za-z][A-Za-z0-9_]*) *= *([^,]+?) *, *([^,]+?) *, *([^,]+?) *$/presched_do(\1,\2,\3,\4,\5)/i
s/^ *Presched +DO +([0-9]+) +([A-Za-z][A-Za-z0-9_]*) *= *([^,]+?) *, *([^,]+?) *$/presched_do(\1,\2,\3,\4,1)/i
s/^ *([0-9]+) +End +Presched +DO *$/end_presched_do(\1)/i
s/^ *Pcase *$/pcase_begin/i
s/^ *Usect *$/pcase_usect/i
s/^ *Csect +\((.*)\) *$/pcase_csect(` + "`\\1'" + `)/i
s/^ *End +pcase *$/pcase_end/i

# Synchronization
s/^ *Barrier *$/barrier_begin/i
s/^ *End +barrier *$/barrier_end/i
s/^ *Critical +([A-Za-z][A-Za-z0-9_]*) *$/critical(\1)/i
s/^ *End +critical *$/end_critical/i
s/^ *Produce +([A-Za-z][A-Za-z0-9_]*) *= *(.*)$/produce(\1,` + "`\\2'" + `)/i
s/^ *Consume +([A-Za-z][A-Za-z0-9_]*) +into +([A-Za-z][A-Za-z0-9_()]*) *$/consume(\1,\2)/i
s/^ *Void +([A-Za-z][A-Za-z0-9_]*) *$/void_async(\1)/i

# Global reductions: GSUM target = expr and friends.  The independent
# layer expands them to the critical-section baseline (the only
# realization the 1989 preprocessor could emit); the Go runtime offers
# the contention-free strategies behind the same statements.
s/^ *Gsum +([A-Za-z][A-Za-z0-9_()]*) *= *(.*)$/greduce(SUM,\1,` + "`\\2'" + `)/i
s/^ *Gprod +([A-Za-z][A-Za-z0-9_()]*) *= *(.*)$/greduce(PROD,\1,` + "`\\2'" + `)/i
s/^ *Gmax +([A-Za-z][A-Za-z0-9_()]*) *= *(.*)$/greduce(MAX,\1,` + "`\\2'" + `)/i
s/^ *Gmin +([A-Za-z][A-Za-z0-9_()]*) *= *(.*)$/greduce(MIN,\1,` + "`\\2'" + `)/i
s/^ *Gand +([A-Za-z][A-Za-z0-9_()]*) *= *(.*)$/greduce(AND,\1,` + "`\\2'" + `)/i
s/^ *Gor +([A-Za-z][A-Za-z0-9_()]*) *= *(.*)$/greduce(OR,\1,` + "`\\2'" + `)/i
`

// Independent is the machine-independent statement-macro layer.  Every
// macro expands to Fortran-shaped text plus calls to the low-level
// machine-dependent macros (lock, unlock, force_environment, *_decl),
// which a machine layer may further rewrite.  It uses the utility-macro
// facilities the paper describes: storing and retrieving definitions
// (the critical-section name, the Pcase block counter) and argument
// manipulation (shift for subroutine argument lists).
const Independent = "" +
	// --- program structure -------------------------------------------
	"define(`force_main', `C Force main program $1, NPROC=$2, ident $3\n" +
	"      PROGRAM $1\n" +
	"      force_environment\n" +
	"C driver creates the force of $2 processes; body follows')dnl\n" +
	"define(`forcesub', `C Force subroutine $1 (executed by all processes)\n" +
	"      SUBROUTINE $1($2)\n" +
	"      force_environment')dnl\n" +
	"define(`externf', `C external Force subroutine $1: startup call generated\n" +
	"      CALL ZZSTART_$1')dnl\n" +
	"define(`end_declarations', `C end of declarations\n" +
	"      CALL ZZFORK(NPROC)')dnl\n" +
	"define(`join_force', `C Join: processes terminate at end of program\n" +
	"      CALL ZZJOIN(NPROC)\n" +
	"      END')dnl\n" +
	// --- barrier -------------------------------------------------------
	"define(`barrier_begin', `C barrier entry code\n" +
	"      lock(BARWIN)\n" +
	"      ZZNBAR = ZZNBAR + 1\n" +
	"      IF (ZZNBAR .EQ. NPROC) THEN\n" +
	"C barrier section, executed by one arbitrary process')dnl\n" +
	"define(`barrier_end', `C end barrier section\n" +
	"      unlock(BARWOT)\n" +
	"      ELSE\n" +
	"      unlock(BARWIN)\n" +
	"      END IF\n" +
	"C barrier exit code\n" +
	"      lock(BARWOT)\n" +
	"      ZZNBAR = ZZNBAR - 1\n" +
	"      IF (ZZNBAR .EQ. 0) THEN\n" +
	"      unlock(BARWIN)\n" +
	"      ELSE\n" +
	"      unlock(BARWOT)\n" +
	"      END IF')dnl\n" +
	// --- critical sections (stores the lock name between the two
	//     statement macros: the paper's "storing and retrieving
	//     definitions" utility) ----------------------------------------
	// Note the quoted `critical' in the comments: the word is itself a
	// macro name, and unquoted it would re-expand on rescan — the
	// standard m4 discipline for macro names in generated text.
	"define(`critical', `define(`ZZCRIT', `$1')dnl\n" +
	"C `critical' section $1\n" +
	"      lock($1)')dnl\n" +
	"define(`end_critical', `C end `critical' section\n" +
	"      unlock(ZZCRIT)')dnl\n" +
	// --- selfscheduled DOALL (the paper's expansion listing) ----------
	"define(`selfsched_do', `C loop entry code\n" +
	"      lock(BARWIN)\n" +
	"      IF (ZZNBAR .EQ. 0) THEN\n" +
	"C initialize loop index\n" +
	"      $2_SHARED = $3\n" +
	"      END IF\n" +
	"C report arrival of processes\n" +
	"      ZZNBAR = ZZNBAR + 1\n" +
	"      IF (ZZNBAR .EQ. NPROC) THEN\n" +
	"      unlock(BARWOT)\n" +
	"      ELSE\n" +
	"      unlock(BARWIN)\n" +
	"      END IF\n" +
	"C self scheduled loop index distribution\n" +
	" $1   lock(LOOP$1)\n" +
	"C get next index value\n" +
	"      $2 = $2_SHARED\n" +
	"      $2_SHARED = $2 + $5\n" +
	"      unlock(LOOP$1)\n" +
	"C test for completion\n" +
	"      IF (($5 .GT. 0 .AND. $2 .LE. $4) .OR.\n" +
	"     X    ($5 .LT. 0 .AND. $2 .GE. $4)) THEN')dnl\n" +
	"define(`end_selfsched_do', `      GO TO $1\n" +
	"      END IF\n" +
	"C loop exit code\n" +
	"      lock(BARWOT)\n" +
	"C report exit of processes\n" +
	"      ZZNBAR = ZZNBAR - 1\n" +
	"      IF (ZZNBAR .EQ. 0) THEN\n" +
	"      unlock(BARWIN)\n" +
	"      ELSE\n" +
	"      unlock(BARWOT)\n" +
	"      END IF')dnl\n" +
	// --- prescheduled DOALL --------------------------------------------
	"define(`presched_do', `C prescheduled loop: indices dealt by process number\n" +
	"      DO $1 $2 = $3 + ME*($5), $4, NPROC*($5)')dnl\n" +
	"define(`end_presched_do', ` $1   CONTINUE')dnl\n" +
	// --- Pcase (prescheduled; compile-time block counter ZZPCN) --------
	"define(`ZZPCN', `0')dnl\n" +
	"define(`pcase_begin', `define(`ZZPCN', `0')dnl\nC pcase: independent code blocks dealt to processes')dnl\n" +
	"define(`pcase_usect', `ifelse(ZZPCN, 0, , `      END IF\n')dnl\nC pcase block ZZPCN (unconditional)\n" +
	"      IF (MOD(ZZPCN, NPROC) .EQ. ME) THEN\n" +
	"define(`ZZPCN', incr(ZZPCN))dnl')dnl\n" +
	"define(`pcase_csect', `ifelse(ZZPCN, 0, , `      END IF\n')dnl\nC pcase block ZZPCN (conditional)\n" +
	"      IF (MOD(ZZPCN, NPROC) .EQ. ME .AND. ($1)) THEN\n" +
	"define(`ZZPCN', incr(ZZPCN))dnl')dnl\n" +
	"define(`pcase_end', `ifelse(ZZPCN, 0, , `      END IF\n')dnl\nC end pcase\n" +
	"      CALL ZZPBAR')dnl\n" +
	// --- produce / consume / void (the two-lock protocol) --------------
	"define(`produce', `C `produce' $1 (wait empty, write, set full)\n" +
	"      lock(F_$1)\n" +
	"      $1 = $2\n" +
	"      unlock(E_$1)')dnl\n" +
	"define(`consume', `C `consume' $1 (wait full, read, set empty)\n" +
	"      lock(E_$1)\n" +
	"      $2 = $1\n" +
	"      unlock(F_$1)')dnl\n" +
	"define(`void_async', `C void $1 (force state to empty)\n" +
	"      IF (ZZFULL($1)) THEN\n" +
	"      lock(E_$1)\n" +
	"      unlock(F_$1)\n" +
	"      END IF')dnl\n" +
	// --- global reductions (critical-section baseline: fold the
	//     contribution under a per-target lock, then the exit
	//     synchronization every collective construct shares) -------------
	"define(`greduce', `C global $1 reduction into $2\n" +
	"      lock(RDC_$2)\n" +
	"      $2 = ZZG$1($2, $3)\n" +
	"      unlock(RDC_$2)\n" +
	"C reduction exit synchronization\n" +
	"      CALL ZZGBAR')dnl\n"

// machineLayers maps a machine name to its machine-dependent macro file.
// "generic" maps to the empty layer: the low-level macros stay symbolic,
// which is how the paper prints its expansion listing.
var machineLayers = map[string]string{
	"generic": "",
	"sequent": "" +
		"define(`lock', `CALL S_LOCK($1)')dnl\n" +
		"define(`unlock', `CALL S_UNLOCK($1)')dnl\n" +
		"define(`define_lock', `LOGICAL $1')dnl\n" +
		"define(`init_lock', `CALL S_INIT_LOCK($1)')dnl\n" +
		"define(`force_environment', `INTEGER ZZNBAR, NPROC, ME\n" +
		"C link-time sharing: startup routine names shared variables')dnl\n" +
		"define(`shared_decl', `$1 $2\nC$SHARED $2 (named for the linker by the startup routine)')dnl\n" +
		"define(`async_decl', `$1 $2\nC$SHARED $2\n      LOGICAL E_$2, F_$2\nC$SHARED E_$2, F_$2')dnl\n" +
		"define(`private_decl', `$1 $2')dnl\n",
	"encore": "" +
		"define(`lock', `CALL SPIN_LOCK($1)')dnl\n" +
		"define(`unlock', `CALL SPIN_UNLOCK($1)')dnl\n" +
		"define(`define_lock', `INTEGER $1')dnl\n" +
		"define(`init_lock', `$1 = 0')dnl\n" +
		"define(`force_environment', `INTEGER ZZNBAR, NPROC, ME\n" +
		"C run-time sharing: shared pages padded at both ends')dnl\n" +
		"define(`shared_decl', `$1 $2\nC shared page placement: $2')dnl\n" +
		"define(`async_decl', `$1 $2\nC shared page placement: $2, E_$2, F_$2')dnl\n" +
		"define(`private_decl', `$1 $2\nC private page placement: $2')dnl\n",
	"alliant": "" +
		"define(`lock', `CALL TS_LOCK($1)')dnl\n" +
		"define(`unlock', `CALL TS_UNLOCK($1)')dnl\n" +
		"define(`define_lock', `INTEGER $1')dnl\n" +
		"define(`init_lock', `$1 = 0')dnl\n" +
		"define(`force_environment', `INTEGER ZZNBAR, NPROC, ME\n" +
		"C run-time sharing: shared area starts at a page boundary')dnl\n" +
		"define(`shared_decl', `$1 $2\nC page-start shared placement: $2')dnl\n" +
		"define(`async_decl', `$1 $2\nC page-start shared placement: $2, E_$2, F_$2')dnl\n" +
		"define(`private_decl', `$1 $2\nC private stack placement: $2')dnl\n",
	"cray2": "" +
		"define(`lock', `CALL LOCKON($1)')dnl\n" +
		"define(`unlock', `CALL LOCKOFF($1)')dnl\n" +
		"define(`define_lock', `INTEGER $1')dnl\n" +
		"define(`init_lock', `CALL LOCKASGN($1)')dnl\n" +
		"define(`force_environment', `INTEGER ZZNBAR, NPROC, ME\n" +
		"C system locks are scarce: LOCKASGN may fail for large programs')dnl\n" +
		"define(`shared_decl', `$1 $2\n      COMMON /FORCESHR/ $2')dnl\n" +
		"define(`async_decl', `$1 $2\n      COMMON /FORCESHR/ $2\n      INTEGER E_$2, F_$2\n      COMMON /FORCESHR/ E_$2, F_$2')dnl\n" +
		"define(`private_decl', `$1 $2')dnl\n",
	"flex32": "" +
		"define(`lock', `CALL FLEX_LOCK($1)')dnl\n" +
		"define(`unlock', `CALL FLEX_UNLOCK($1)')dnl\n" +
		"define(`define_lock', `INTEGER $1')dnl\n" +
		"define(`init_lock', `CALL FLEX_INIT($1)')dnl\n" +
		"define(`force_environment', `INTEGER ZZNBAR, NPROC, ME\n" +
		"C combined locks: spin briefly, then system call')dnl\n" +
		"define(`shared_decl', `$1 $2\n      COMMON /FORCESHR/ $2')dnl\n" +
		"define(`async_decl', `$1 $2\n      COMMON /FORCESHR/ $2\n      INTEGER E_$2, F_$2\n      COMMON /FORCESHR/ E_$2, F_$2')dnl\n" +
		"define(`private_decl', `$1 $2')dnl\n",
	"hep": "" +
		"define(`lock', `CALL AWAITF($1)')dnl\n" +
		"define(`unlock', `CALL ASETE($1)')dnl\n" +
		"define(`define_lock', `INTEGER $1')dnl\n" +
		"define(`init_lock', `CALL ASETE($1)')dnl\n" +
		"define(`force_environment', `INTEGER ZZNBAR, NPROC, ME\n" +
		"C hardware full/empty state on every memory cell')dnl\n" +
		"define(`shared_decl', `$1 $2\n      COMMON /FORCESHR/ $2')dnl\n" +
		// The HEP needs no E_/F_ lock pair: the cell itself carries the
		// full/empty bit, so produce/consume map to asynchronous access.
		"define(`async_decl', `$1 $2\n      COMMON /FORCESHR/ $2\nC $2 uses the hardware full/empty bit')dnl\n" +
		"define(`private_decl', `$1 $2')dnl\n" +
		"define(`produce', `C `produce' $1 (hardware full/empty)\n" +
		"      CALL AWRITE($1, $2)')dnl\n" +
		"define(`consume', `C `consume' $1 (hardware full/empty)\n" +
		"      $2 = AREAD($1)')dnl\n" +
		"define(`void_async', `C void $1 (hardware full/empty)\n" +
		"      CALL ASETE($1)')dnl\n",
}

// Machines lists the machine-layer names, generic first.
func Machines() []string {
	return []string{"generic", "hep", "flex32", "encore", "sequent", "alliant", "cray2"}
}

// MachineLayer returns the named machine-dependent macro file.
func MachineLayer(name string) (string, error) {
	layer, ok := machineLayers[name]
	if !ok {
		return "", fmt.Errorf("maclib: unknown machine layer %q", name)
	}
	return layer, nil
}

// Expand runs the complete Force preprocessor pipeline over src for the
// named machine: sed pass, machine-dependent layer, machine-independent
// layer, then macro expansion of the program text.
//
// Note the load order: the machine layer is loaded after the independent
// layer so that a machine may override statement macros outright — the
// HEP's produce/consume use the hardware full/empty bit instead of the
// two-lock protocol, exactly the paper's point that only the HEP avoids
// the two-lock scheme.
func Expand(machineName, src string) (string, error) {
	layer, err := MachineLayer(machineName)
	if err != nil {
		return "", err
	}
	sed, err := sedlite.Parse(SedRules)
	if err != nil {
		return "", fmt.Errorf("maclib: internal sed rules: %w", err)
	}
	macroText := sed.Apply(src)

	p := m4lite.NewProcessor()
	if err := p.Load(Independent); err != nil {
		return "", fmt.Errorf("maclib: independent layer: %w", err)
	}
	if layer != "" {
		if err := p.Load(layer); err != nil {
			return "", fmt.Errorf("maclib: %s layer: %w", machineName, err)
		}
	}
	out, err := p.Expand(macroText)
	if err != nil {
		return "", fmt.Errorf("maclib: expanding program: %w", err)
	}
	return out, nil
}
