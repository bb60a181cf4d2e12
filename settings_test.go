package perm_test

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"perm"
	"perm/internal/session"
)

// handleState is what a handle runs with, resolved from its options.
type handleState struct {
	memoryLimit int64
	workers     int
	traceEvery  int
	timeout     time.Duration
}

func stateOf(db *perm.Database) handleState {
	return handleState{db.MemoryLimit(), db.Workers(), db.TraceEvery(), db.Timeout()}
}

// parseFlag applies -<flag>=value through a flag set built from the
// settings table.
func parseFlag(s perm.Setting, value string) (perm.Options, error) {
	var o perm.Options
	fs := flag.NewFlagSet("settings", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	perm.RegisterFlags(fs, &o)
	err := fs.Parse([]string{"-" + s.Flag + "=" + value})
	return o, err
}

// TestSettingsOneSource: every setting parses a value the same way
// whether it arrives as a flag, through SET or in its environment
// variable — the same Options, the same resolved handle state and the
// same error text — and 0 inherits from the level above on each surface.
func TestSettingsOneSource(t *testing.T) {
	// A typical value of each setting and the Options field it spells.
	typical := map[string]struct {
		value string
		want  perm.Options
	}{
		"disable_optimizer":   {"true", perm.Options{DisableOptimizer: true}},
		"disable_vectorized":  {"yes", perm.Options{DisableVectorized: true}},
		"disable_query_cache": {"1", perm.Options{DisableQueryCache: true}},
		"memory_limit":        {"64MiB", perm.Options{MemoryLimit: 64 << 20}},
		"spill_dir":           {"spill-area", perm.Options{SpillDir: "spill-area"}},
		"parallelism":         {"3", perm.Options{Parallelism: 3}},
		"trace_sample":        {"5", perm.Options{TraceSample: 5}},
		"statement_timeout":   {"1500", perm.Options{StatementTimeout: 1500 * time.Millisecond}},
	}
	settings := perm.Settings()
	if len(settings) != len(typical) {
		t.Fatalf("%d settings, %d typical values: give every setting one", len(settings), len(typical))
	}
	for _, s := range settings {
		ty, ok := typical[s.Name]
		if !ok {
			t.Fatalf("setting %s has no typical value", s.Name)
		}
		t.Run(s.Name, func(t *testing.T) {
			if s.Env != "" {
				t.Setenv(s.Env, "") // empty counts as unset
			}
			o, err := parseFlag(s, ty.value)
			if err != nil || o != ty.want {
				t.Fatalf("-%s=%s = %+v, %v; want %+v", s.Flag, ty.value, o, err, ty.want)
			}
			// A path takes any string; every other setting rejects a
			// negative other than -1 and garbage.
			isPath := ty.want.SpillDir != ""
			for _, v := range []string{ty.value, "off", "-1", "0", "-2", "garbage"} {
				fo, ferr := parseFlag(s, v)
				fdb := perm.NewDatabaseWithOptions(fo)
				rejected := !isPath && (v == "-2" || v == "garbage")
				if rejected != (ferr != nil) {
					t.Errorf("-%s=%s: err = %v, want rejected = %v", s.Flag, v, ferr, rejected)
				}
				if v == "-1" && !isPath {
					if off, _ := parseFlag(s, "off"); fo != off {
						t.Errorf("-%s=-1 = %+v, -%s=off = %+v", s.Flag, fo, s.Flag, off)
					}
				}
				type surface struct {
					name string
					db   *perm.Database
					err  error
				}
				var others []surface
				if s.Settable { // against a server configured with no options
					sess := session.New(perm.NewDatabase())
					err := sess.SetOption(s.Name, v)
					others = append(others, surface{"SET", sess.DB(), err})
					sess.Close()
				}
				if s.Env != "" {
					t.Setenv(s.Env, v)
					others = append(others, surface{"$" + s.Env, perm.NewDatabase(), perm.EnvError(s.Env)})
					t.Setenv(s.Env, "")
				}
				// A rejected value leaves every surface at the defaults.
				for _, o := range others {
					switch {
					case (o.err != nil) != (ferr != nil):
						t.Errorf("%s %s: err = %v, flag err = %v", o.name, v, o.err, ferr)
					case ferr != nil && !strings.HasSuffix(ferr.Error(), ": "+o.err.Error()):
						t.Errorf("%s %s: error %q, flag error %q", o.name, v, o.err, ferr)
					case o.db.Opts() != fdb.Opts():
						t.Errorf("%s %s: options %+v, flag %+v", o.name, v, o.db.Opts(), fdb.Opts())
					case stateOf(o.db) != stateOf(fdb):
						t.Errorf("%s %s: state %+v, flag %+v", o.name, v, stateOf(o.db), stateOf(fdb))
					}
				}
			}

			// A number's 0 inherits: from the environment for a flag or an
			// Options field, from the server's configuration for SET. (A
			// boolean's 0 is false.)
			w := ty.want
			if w.MemoryLimit == 0 && w.Parallelism == 0 && w.TraceSample == 0 && w.StatementTimeout == 0 {
				return
			}
			if zero, _ := parseFlag(s, "0"); zero != (perm.Options{}) {
				t.Errorf("-%s=0 = %+v, want it unset", s.Flag, zero)
			}
			if s.Env != "" {
				t.Setenv(s.Env, ty.value)
				if got, want := perm.NewDatabaseWithOptions(perm.Options{}), perm.NewDatabaseWithOptions(ty.want); got.Opts() != want.Opts() || stateOf(got) != stateOf(want) {
					t.Errorf("-%s=0 under $%s=%s = %+v, want %+v", s.Flag, s.Env, ty.value, got.Opts(), want.Opts())
				}
				t.Setenv(s.Env, "")
			}
			if s.Settable {
				srv := perm.NewDatabaseWithOptions(ty.want)
				sess := session.New(srv)
				defer sess.Close()
				for _, v := range []string{"off", "0"} {
					if err := sess.SetOption(s.Name, v); err != nil {
						t.Fatalf("SET %s = %s: %v", s.Name, v, err)
					}
				}
				if got := sess.DB(); got.Opts() != srv.Opts() || stateOf(got) != stateOf(srv) {
					t.Errorf("SET %s = 0 = %+v, want the server's %+v", s.Name, got.Opts(), srv.Opts())
				}
			}
		})
	}

	// The unknown-option error names exactly the settable settings.
	var settable []string
	for _, s := range settings {
		if s.Settable {
			settable = append(settable, s.Name)
		}
	}
	err := session.New(perm.NewDatabase()).SetOption("nonsense", "on")
	if err == nil {
		t.Fatal("SET of an unknown option succeeded")
	}
	_, have, _ := strings.Cut(strings.TrimSuffix(err.Error(), ")"), "(have ")
	if got := strings.Split(have, ", "); !slices.Equal(got, settable) {
		t.Errorf("unknown-option error lists %v, want %v", got, settable)
	}

	// Each compile-relevant setting, and no other, changes the cache key.
	for _, s := range settings {
		changed := perm.CacheKey(typical[s.Name].want) != perm.CacheKey(perm.Options{})
		if changed != s.Compile {
			t.Errorf("%s: changes the cache key = %v, compile-relevant = %v", s.Name, changed, s.Compile)
		}
	}
}
