package perm

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"perm/internal/mem"
)

// Setting is one engine option, declared once: the Options field it
// fills and the name it goes by on every surface. Options resolution (the
// environment defaults), SET, the permd/permcli flags and the
// compiled-query cache key are all derived from the settings table, so a
// value means the same thing wherever it is written:
//
//   - off and -1 mean off (unlimited, serial, no tracing, no timeout);
//     any other negative number is rejected;
//   - 0 inherits from the level above: the environment variable for a
//     flag or an Options field, the server's configuration for SET;
//   - booleans take on/off, true/false, 1/0 and yes/no;
//   - a bare integer duration is milliseconds.
type Setting struct {
	Name  string // SET name, e.g. "memory_limit"
	Flag  string // permd/permcli flag, e.g. "memory-limit"
	Env   string // environment variable supplying the default, or ""
	Usage string
	// Settable is whether a session may change the setting with SET.
	Settable bool
	// Compile is whether the setting changes what the compile pipeline
	// produces, which makes it part of the compiled-query cache key.
	Compile bool
	// field returns a pointer to the setting's Options field.
	field func(*Options) any
}

var settings = []Setting{
	{Name: "disable_optimizer", Flag: "no-optimizer", Settable: true, Compile: true,
		Usage: "disable the logical optimizer (flattening/pruning of rewritten queries)",
		field: func(o *Options) any { return &o.DisableOptimizer }},
	{Name: "disable_vectorized", Flag: "no-vectorized", Settable: true,
		Usage: "disable the vectorized execution engine (run everything row-at-a-time)",
		field: func(o *Options) any { return &o.DisableVectorized }},
	{Name: "disable_query_cache", Flag: "no-query-cache", Settable: true,
		Usage: "disable the shared compiled-query cache",
		field: func(o *Options) any { return &o.DisableQueryCache }},
	{Name: "memory_limit", Flag: "memory-limit", Env: "PERM_MEMORY_LIMIT", Settable: true,
		Usage: "per-session memory budget, e.g. 64MiB; materializing operators spill to disk past it (off = unlimited)",
		field: func(o *Options) any { return &o.MemoryLimit }},
	{Name: "spill_dir", Flag: "spill-dir", Env: "PERM_SPILL_DIR",
		Usage: "directory for spill files (default the system temp directory)",
		field: func(o *Options) any { return &o.SpillDir }},
	{Name: "parallelism", Flag: "parallelism", Env: "PERM_PARALLELISM", Settable: true,
		Usage: "intra-query worker count (default all cores; 1, -1 or off = serial)",
		field: func(o *Options) any { return &o.Parallelism }},
	{Name: "trace_sample", Flag: "trace-sample", Env: "PERM_TRACE_SAMPLE", Settable: true,
		Usage: "record a lifecycle trace for every Nth query into perm_traces (off = none)",
		field: func(o *Options) any { return &o.TraceSample }},
	{Name: "statement_timeout", Flag: "statement-timeout", Env: "PERM_STATEMENT_TIMEOUT", Settable: true,
		Usage: "cancel statements running longer than this: milliseconds or a duration like 30s (off = none)",
		field: func(o *Options) any { return &o.StatementTimeout }},
}

// Settings returns the settings table, one entry per Options field.
func Settings() []Setting { return slices.Clone(settings) }

// parse reads value into the setting's field of o; on error o is left
// as it was.
func (s *Setting) parse(o *Options, value string) error {
	v := strings.ToLower(strings.TrimSpace(value))
	off := v == "off" || v == "-1"
	switch p := s.field(o).(type) {
	case *bool:
		switch v {
		case "on", "true", "1", "yes":
			*p = true
		case "off", "-1", "false", "0", "no":
			*p = false
		default:
			return fmt.Errorf("%s must be on/off, true/false, 1/0 or yes/no, got %q", s.Name, value)
		}
	case *int64: // a byte size
		n, err := mem.ParseSize(v)
		if err != nil {
			return fmt.Errorf("%s: %v", s.Name, err)
		}
		*p = n
	case *int:
		n, err := strconv.Atoi(v)
		if off {
			n, err = -1, nil
		} else if err != nil || n < 0 {
			return fmt.Errorf("%s must be a non-negative integer, -1 or off, got %q", s.Name, value)
		}
		*p = n
	case *time.Duration:
		d, err := time.ParseDuration(v)
		if ms, merr := strconv.Atoi(v); merr == nil {
			d, err = time.Duration(ms)*time.Millisecond, nil // a bare integer is milliseconds
		}
		if off {
			d, err = -1, nil
		} else if err != nil || d < 0 {
			return fmt.Errorf("%s must be milliseconds, a duration like 500ms, -1 or off, got %q", s.Name, value)
		}
		*p = d
	case *string:
		*p = strings.TrimSpace(value)
	}
	return nil
}

// inherit fills the setting's field of o from the level above when o
// leaves it unset (0 or ""). A boolean is never unset: false is a value.
func (s *Setting) inherit(o, above *Options) {
	f := reflect.ValueOf(s.field(o)).Elem()
	if f.Kind() != reflect.Bool && f.IsZero() {
		f.Set(reflect.ValueOf(s.field(above)).Elem())
	}
}

// envWarned records the variables whose malformed value has been
// reported, so each is reported once.
var envWarned sync.Map

// withEnvDefaults resolves every unset field of o from its environment
// variable. A value the setting rejects is reported and ignored.
func withEnvDefaults(o Options) Options {
	for i := range settings {
		s := &settings[i]
		v := os.Getenv(s.Env)
		if s.Env == "" || v == "" {
			continue
		}
		var env Options
		if err := s.parse(&env, v); err != nil {
			if _, warned := envWarned.LoadOrStore(s.Env, true); !warned {
				fmt.Fprintf(os.Stderr, "perm: ignoring invalid %s: %v\n", s.Env, err)
			}
			continue
		}
		s.inherit(&o, &env)
	}
	return o
}

// optionsFingerprint encodes the compile-relevant settings: the cached
// artifact is the optimized logical tree, planned fresh on every
// execution.
func optionsFingerprint(o Options) string {
	var key []byte
	for i := range settings {
		if settings[i].Compile {
			key = fmt.Appendf(key, "%v,", reflect.ValueOf(settings[i].field(&o)).Elem())
		}
	}
	return string(key)
}

// ApplySet executes SET name = value against a session's options o.
// Zero restores the setting from base, the options the server configured
// the session with. On error o is left as it was.
func ApplySet(o *Options, base Options, name, value string) error {
	key := strings.ToLower(strings.TrimSpace(name))
	i := slices.IndexFunc(settings, func(s Setting) bool { return s.Settable && s.Name == key })
	if i < 0 {
		var names []string
		for _, s := range settings {
			if s.Settable {
				names = append(names, s.Name)
			}
		}
		return fmt.Errorf("unknown option %q (have %s)", name, strings.Join(names, ", "))
	}
	if err := settings[i].parse(o, value); err != nil {
		return err
	}
	settings[i].inherit(o, &base)
	return nil
}

// RegisterFlags defines one flag per setting on fs; parsing fs writes
// every flag given into o. A flag's Value.String is the value exactly as
// written, so a client can forward it to a server as a SET.
func RegisterFlags(fs *flag.FlagSet, o *Options) {
	for i := range settings {
		s := &settings[i]
		usage := s.Usage
		if s.Env != "" {
			usage += "; overrides $" + s.Env
		}
		fs.Var(&flagValue{s: s, o: o}, s.Flag, usage)
	}
}

// flagValue is the flag.Value of a setting.
type flagValue struct {
	s   *Setting
	o   *Options
	raw string
}

func (v *flagValue) String() string { return v.raw }

func (v *flagValue) Set(value string) error {
	if err := v.s.parse(v.o, value); err != nil {
		return err
	}
	v.raw = value
	return nil
}

// IsBoolFlag lets a boolean setting be given as a bare -flag.
func (v *flagValue) IsBoolFlag() bool {
	_, ok := v.s.field(v.o).(*bool)
	return ok
}
