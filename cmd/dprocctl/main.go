// Command dprocctl reads and writes a dprocd node's /proc/cluster hierarchy
// over its admin socket — the command-line face of the paper's "simple reads
// and writes to control files within the pseudo-file system".
//
// Usage:
//
//	dprocctl -node 127.0.0.1:7501 ls cluster
//	dprocctl -node 127.0.0.1:7501 cat cluster/maui/loadavg
//	dprocctl -node 127.0.0.1:7501 tree
//	dprocctl -node 127.0.0.1:7501 status
//	dprocctl -node 127.0.0.1:7501 stats
//	dprocctl -node 127.0.0.1:7501 write cluster/maui/control 'period cpu 2'
//	cat filter.ec | dprocctl -node 127.0.0.1:7501 write cluster/maui/control -
//	dprocctl -node 127.0.0.1:7501 query maui 'avg loadavg last 60s'
//	dprocctl -node 127.0.0.1:7501 queryall p99 loadavg last 60s
//
// The usage text derives from the adminproto verb table, filtered to the
// verbs this command dispatches: a verb added to the protocol appears here
// once it has a run entry.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dproc/internal/adminproto"
)

// run executes one verb against the client. Keyed by the verb names in
// adminproto's table; usageText lists exactly these keys.
var run = map[string]func(c *adminproto.Client, args []string) error{
	"ls": func(c *adminproto.Client, args []string) error {
		path := ""
		if len(args) > 0 {
			path = args[0]
		}
		entries, err := c.List(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			fmt.Println(e)
		}
		return nil
	},
	"cat": func(c *adminproto.Client, args []string) error {
		out, err := c.Cat(args[0])
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	},
	"tree": func(c *adminproto.Client, args []string) error {
		path := "cluster"
		if len(args) > 0 {
			path = args[0]
		}
		out, err := c.Tree(path)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	},
	"status": func(c *adminproto.Client, _ []string) error {
		out, err := c.Status()
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	},
	"stats": func(c *adminproto.Client, _ []string) error {
		out, err := c.Stats()
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	},
	"write": func(c *adminproto.Client, args []string) error {
		if len(args) < 2 {
			return errUsage
		}
		var body string
		if args[1] == "-" {
			data, err := io.ReadAll(os.Stdin)
			if err != nil {
				return err
			}
			body = string(data)
		} else {
			body = strings.Join(args[1:], " ")
		}
		if err := c.Write(args[0], body); err != nil {
			return err
		}
		fmt.Println("ok")
		return nil
	},
	"query": func(c *adminproto.Client, args []string) error {
		if len(args) < 2 {
			return errUsage
		}
		out, err := c.Query(args[0], strings.Join(args[1:], " "))
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	},
	"queryall": func(c *adminproto.Client, args []string) error {
		out, err := c.QueryAll(strings.Join(args, " "))
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	},
	"flush": func(c *adminproto.Client, _ []string) error {
		out, err := c.Flush()
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	},
}

var errUsage = fmt.Errorf("bad arguments")

func main() {
	node := flag.String("node", "127.0.0.1:7501", "dprocd admin socket address")
	timeout := flag.Duration("timeout", 0, "per-phase I/O timeout (dial, request write, each response read); 0 = 10s default")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	fn, ok := runnable(args)
	if !ok {
		usage()
	}
	client := adminproto.NewClient(*node)
	if *timeout > 0 {
		client.SetTimeout(*timeout)
	}
	err := fn(client, args[1:])
	client.Close()
	if err != nil {
		if err == errUsage {
			usage()
		}
		fatal(err)
	}
}

// runnable returns the run entry for args (the verb, then its arguments)
// when the verb is one dprocctl runs and its arguments hold at least the
// verb's MinArgs words. The words are those of the joined arguments, so a
// query passed as one quoted argument counts as the words it holds:
// queryall 'p99 loadavg last 30s' runs like queryall p99 loadavg last 30s.
func runnable(args []string) (func(c *adminproto.Client, args []string) error, bool) {
	if len(args) == 0 {
		return nil, false
	}
	verb, ok := adminproto.LookupVerb(args[0])
	fn := run[args[0]]
	if !ok || fn == nil || len(strings.Fields(strings.Join(args[1:], " "))) < verb.MinArgs {
		return nil, false
	}
	return fn, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dprocctl:", err)
	os.Exit(1)
}

// usage prints usageText to stderr and exits 2.
func usage() {
	fmt.Fprint(os.Stderr, usageText())
	os.Exit(2)
}

// usageText renders the verb list from the adminproto table, keeping only
// the verbs run dispatches (querypart is the coordinator's, not an
// operator's), so the CLI can never advertise a verb it cannot run.
func usageText() string {
	var sb strings.Builder
	sb.WriteString("usage:\n")
	for _, v := range adminproto.Verbs() {
		if run[v.Name] == nil {
			continue
		}
		argSyn := v.CLIArgs
		if argSyn == "" {
			argSyn = v.Args
		}
		line := usagePrefix + v.Name
		if argSyn != "" {
			line += " " + argSyn
		}
		if v.Help != "" {
			line = fmt.Sprintf("%-68s # %s", line, v.Help)
		}
		sb.WriteString(line + "\n")
	}
	return sb.String()
}

// usagePrefix starts every verb line of usageText.
const usagePrefix = "  dprocctl [-node addr] [-timeout d] "
