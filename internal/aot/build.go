package aot

// build.go — cold-path compilation: emit Go via internal/codegen into a
// throwaway dot-prefixed package directory under the module root (dot
// directories are invisible to `go build ./...` / `go test ./...`
// enumeration, so scratch dirs never pollute tier-1 builds), build it
// with the toolchain, and publish the binary into the cache entry with
// an atomic rename so readers only ever see complete binaries.  The
// metadata (with the binary's size, the truncation sentinel) is written
// last: a crash at any point leaves an entry that classifies stale, not
// one that executes a half-written binary.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/codegen"
	"repro/internal/forcelang"
)

// EnvModuleRoot overrides module-root discovery — useful when the
// process runs outside the repository checkout.
const EnvModuleRoot = "FORCE_MODULE_ROOT"

// moduleRoot finds the repository's module root (the directory holding
// `module repro`'s go.mod): $FORCE_MODULE_ROOT if set, else walking up
// from the working directory.
func moduleRoot() (string, error) {
	if r := os.Getenv(EnvModuleRoot); r != "" {
		return r, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.Contains(string(data), "module repro") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repro go.mod above %s (set %s)", dir, EnvModuleRoot)
		}
		dir = parent
	}
}

// build generates, compiles and publishes the entry for key.  The
// caller holds the build lock.  ctx bounds the toolchain invocation: a
// canceled build kills the `go build` subprocess and reports ctx's
// error; the half-built scratch state is torn down as usual and the
// entry classifies stale/missing for the next builder.
func (c *Cache) build(ctx context.Context, key string, prog *forcelang.Program) (*Entry, error) {
	if _, err := exec.LookPath("go"); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoToolchain, err)
	}
	src, decisions, err := codegen.Lower(prog, codegen.Options{})
	if err != nil {
		return nil, fmt.Errorf("aot: generate: %w", err)
	}
	root, err := moduleRoot()
	if err != nil {
		return nil, fmt.Errorf("aot: %w", err)
	}
	dir := c.entryDir(key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("aot: %w", err)
	}
	// Keep the generated source, and the plan it was emitted from, beside
	// the binary for inspection.
	if err := os.WriteFile(filepath.Join(dir, "main.go"), src, 0o644); err != nil {
		return nil, fmt.Errorf("aot: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "plan"), []byte(strings.Join(decisions, "\n")+"\n"), 0o644); err != nil {
		return nil, fmt.Errorf("aot: %w", err)
	}
	// The generated code imports repro/internal/*, so it must compile as
	// a package inside the module.
	scratch, err := os.MkdirTemp(root, ".force-aot-")
	if err != nil {
		return nil, fmt.Errorf("aot: %w", err)
	}
	defer os.RemoveAll(scratch)
	if err := os.WriteFile(filepath.Join(scratch, "main.go"), src, 0o644); err != nil {
		return nil, fmt.Errorf("aot: %w", err)
	}
	start := time.Now()
	binTmp := filepath.Join(dir, "force.bin.tmp")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binTmp, "./"+filepath.Base(scratch))
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("aot: go build canceled: %w", ctxErr)
		}
		return nil, fmt.Errorf("aot: go build: %w\n%s", err, out)
	}
	buildTime := time.Since(start)
	bin := filepath.Join(dir, "force.bin")
	if err := os.Rename(binTmp, bin); err != nil {
		return nil, fmt.Errorf("aot: %w", err)
	}
	st, err := os.Stat(bin)
	if err != nil {
		return nil, fmt.Errorf("aot: %w", err)
	}
	meta := Meta{
		Program:     prog.Name,
		Key:         key,
		BinSize:     st.Size(),
		BuiltAt:     time.Now().UTC().Format(time.RFC3339),
		BuildMillis: buildTime.Milliseconds(),
	}
	mj, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("aot: %w", err)
	}
	metaTmp := filepath.Join(dir, "meta.json.tmp")
	if err := os.WriteFile(metaTmp, mj, 0o644); err != nil {
		return nil, fmt.Errorf("aot: %w", err)
	}
	if err := os.Rename(metaTmp, filepath.Join(dir, "meta.json")); err != nil {
		return nil, fmt.Errorf("aot: %w", err)
	}
	return &Entry{Key: key, Dir: dir, Bin: bin, Meta: meta}, nil
}
