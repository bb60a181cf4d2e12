// Command permcli is an interactive SQL shell for the Perm engine,
// including the SQL-PLE provenance extensions of the paper:
//
//	SELECT PROVENANCE ...;
//	EXPLAIN REWRITE SELECT PROVENANCE ...;   -- show the rewritten query q+
//	EXPLAIN SELECT ...;                      -- show the physical plan
//	EXPLAIN ANALYZE SELECT ...;              -- execute and show per-operator runtime stats
//
// plus the query-service dialect (PREPARE name AS ..., EXECUTE name,
// DEALLOCATE name, SET option = value).
//
// With -remote ADDR the shell connects to a permd server instead of
// embedding an engine; statements then execute in a server-side session,
// and every engine-setting flag given (perm.Settings) is forwarded to it
// as a SET.
//
// Meta commands: \d (list tables/views), \tpch SF (load TPC-H data),
// \i FILE (run a script), \q (quit).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"perm"
	"perm/internal/session"
	"perm/internal/tpch"
	"perm/permclient"
)

// runner executes one statement and returns its result (queries), rows
// affected (DML) or a completion tag (everything else).
type runner func(text string) (res *perm.Result, affected int, tag string, err error)

func main() {
	var opts perm.Options
	perm.RegisterFlags(flag.CommandLine, &opts)
	var (
		script = flag.String("f", "", "execute a SQL script file and exit")
		remote = flag.String("remote", "", "connect to a permd server at this address instead of embedding an engine")
		loadSF = flag.Float64("tpch", 0, "preload TPC-H data at this scale factor")
		timing = flag.Bool("timing", true, "print execution times")
	)
	flag.Parse()

	var run runner
	var db *perm.Database // nil in remote mode
	if *remote != "" {
		if *loadSF > 0 {
			fmt.Fprintln(os.Stderr, "-tpch loads into an embedded engine; start permd with -tpch instead")
			os.Exit(1)
		}
		client, err := permclient.Dial(*remote)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer client.Close() //nolint:errcheck
		forwardSettings(client)
		run = func(text string) (*perm.Result, int, string, error) {
			res, n, err := client.Exec(text)
			return res, n, "OK", err
		}
	} else {
		db = perm.NewDatabaseWithOptions(opts)
		if *loadSF > 0 {
			fmt.Fprintf(os.Stderr, "loading TPC-H at SF %g ...\n", *loadSF)
			tpch.MustLoad(db, *loadSF, 42)
		}
		sess := session.New(db)
		run = func(text string) (*perm.Result, int, string, error) {
			out, err := sess.Run(text)
			if err != nil {
				return nil, 0, "", err
			}
			return out.Result, out.Affected, out.Tag, nil
		}
	}

	if *script != "" {
		data, err := os.ReadFile(*script)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := runStatement(run, string(data), *timing); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("perm shell — SELECT PROVENANCE computes Why-provenance; \\q quits")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "perm> "
	for {
		fmt.Print(prompt)
		if !scanner.Scan() {
			return
		}
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if done := metaCommand(db, run, trimmed, *timing); done {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.HasSuffix(trimmed, ";") {
			stmt := buf.String()
			buf.Reset()
			prompt = "perm> "
			if err := runStatement(run, stmt, *timing); err != nil {
				fmt.Println("ERROR:", err)
			}
			continue
		}
		if buf.Len() > 0 {
			prompt = "   -> "
		}
	}
}

// forwardSettings applies every engine-setting flag given on the command
// line to the connection's server-side session, as a SET of the value
// exactly as written, so the server parses it as the flag would have.
func forwardSettings(client *permclient.Client) {
	settings := perm.Settings()
	flag.Visit(func(f *flag.Flag) {
		i := slices.IndexFunc(settings, func(s perm.Setting) bool { return s.Flag == f.Name })
		switch {
		case i < 0: // a permcli flag
		case !settings[i].Settable:
			fmt.Fprintf(os.Stderr, "-%s applies to the embedded engine; start permd with -%s instead\n", f.Name, f.Name)
		default:
			if err := client.Set(settings[i].Name, f.Value.String()); err != nil {
				fmt.Fprintf(os.Stderr, "SET %s: %v\n", settings[i].Name, err)
				os.Exit(1)
			}
		}
	})
}

// metaCommand handles backslash commands; returns true to quit. db is
// nil in remote mode, where engine-side meta commands are unavailable.
func metaCommand(db *perm.Database, run runner, cmd string, timing bool) bool {
	switch {
	case cmd == "\\q":
		return true
	case cmd == "\\d":
		if db == nil {
			fmt.Println("\\d is not available in remote mode")
			return false
		}
		fmt.Println("Tables:")
		for _, t := range db.Tables() {
			n, _ := db.TableRowCount(t)
			fmt.Printf("  %s (%d rows)\n", t, n)
		}
		fmt.Println("Views:")
		for _, v := range db.Views() {
			fmt.Printf("  %s\n", v)
		}
	case strings.HasPrefix(cmd, "\\tpch"):
		if db == nil {
			fmt.Println("\\tpch is not available in remote mode (start permd with -tpch)")
			return false
		}
		arg := strings.TrimSpace(strings.TrimPrefix(cmd, "\\tpch"))
		sf, err := strconv.ParseFloat(arg, 64)
		if err != nil || sf <= 0 {
			fmt.Println("usage: \\tpch <scale factor>, e.g. \\tpch 0.01")
			return false
		}
		start := time.Now()
		if _, err := tpch.Load(db, sf, 42); err != nil {
			fmt.Println("ERROR:", err)
			return false
		}
		fmt.Printf("loaded in %.2fs\n", time.Since(start).Seconds())
	case strings.HasPrefix(cmd, "\\i"):
		file := strings.TrimSpace(strings.TrimPrefix(cmd, "\\i"))
		data, err := os.ReadFile(file)
		if err != nil {
			fmt.Println("ERROR:", err)
			return false
		}
		if err := runStatement(run, string(data), timing); err != nil {
			fmt.Println("ERROR:", err)
		}
	default:
		fmt.Println("meta commands: \\d  \\tpch SF  \\i FILE  \\q")
	}
	return false
}

// runStatement executes one or more statements, printing query results.
func runStatement(run runner, text string, timing bool) error {
	trimmed := strings.TrimSpace(text)
	if trimmed == "" {
		return nil
	}
	start := time.Now()
	res, affected, tag, err := run(trimmed)
	if err != nil {
		return err
	}
	switch {
	case res != nil:
		fmt.Print(res)
		fmt.Printf("(%d rows", len(res.Rows))
		if n := res.NumProvColumns(); n > 0 {
			fmt.Printf(", %d provenance columns", n)
		}
		fmt.Print(")\n")
	case affected > 0:
		fmt.Printf("%d rows affected\n", affected)
	case tag != "" && tag != "OK":
		fmt.Println(tag)
	default:
		fmt.Println("ok")
	}
	if timing {
		fmt.Printf("time: %.4fs\n", time.Since(start).Seconds())
	}
	return nil
}
