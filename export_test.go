package perm

import (
	"os"
	"time"
)

// A handle's resolved settings and the cache key of an option set, for
// the tests of package perm_test.

func (db *Database) Workers() int { return db.workers() }

func (db *Database) TraceEvery() int { return max(db.opts.TraceSample, 0) }

func (db *Database) Timeout() time.Duration { return max(db.opts.StatementTimeout, 0) }

func CacheKey(o Options) string { return optionsFingerprint(withEnvDefaults(o)) }

// EnvError is the error withEnvDefaults reports for the current value of
// the environment variable name, nil when the value is accepted or unset.
func EnvError(name string) error {
	for i := range settings {
		if v := os.Getenv(name); settings[i].Env == name && v != "" {
			var o Options
			return settings[i].parse(&o, v)
		}
	}
	return nil
}
