// Command vsql is an interactive SQL shell for the analytic engine. By
// default it boots an in-process cluster to play with; it can also serve a
// cluster's nodes over TCP or connect to an already-running server.
//
//	vsql                      # 4-node in-process cluster, interactive shell
//	vsql -nodes 8             # bigger cluster
//	vsql -listen 127.0.0.1:5433   # also serve node 0 on TCP
//	vsql -connect 127.0.0.1:5433  # shell against a remote server
//
// Shell meta-commands: \dt (tables), \dv (views), \dn (nodes),
// \trace <file> (export the collected spans as a Chrome trace), \q (quit).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"vsfabric/internal/core"
	"vsfabric/internal/obs"
	"vsfabric/internal/server"
	"vsfabric/internal/types"
	"vsfabric/internal/vertica"
)

type executor interface {
	Execute(sql string) (*vertica.Result, error)
}

// tcpExec adapts the ctx-first TCP connection to the shell's one-shot
// executor; ctx names the shell to the server as its peer.
type tcpExec struct {
	ctx  context.Context
	conn *server.TCPConn
}

func (t tcpExec) Execute(sql string) (*vertica.Result, error) {
	return t.conn.Execute(t.ctx, sql)
}

func main() {
	nodes := flag.Int("nodes", 4, "cluster size for the in-process engine")
	listen := flag.String("listen", "", "also serve node 0 over TCP on this address")
	connect := flag.String("connect", "", "connect to a remote server instead of booting a cluster")
	flag.Parse()

	var exec executor
	var local *vertica.Cluster // non-nil only for the in-process engine
	switch {
	case *connect != "":
		ctx := obs.WithPeer(context.Background(), "vsql")
		conn, err := server.DialContext(ctx, *connect)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vsql: %v\n", err)
			os.Exit(1)
		}
		defer conn.Close()
		exec = tcpExec{ctx, conn}
		fmt.Printf("connected to %s\n", *connect)
	default:
		cluster, err := vertica.NewCluster(vertica.Config{Nodes: *nodes})
		if err != nil {
			fmt.Fprintf(os.Stderr, "vsql: %v\n", err)
			os.Exit(1)
		}
		local = cluster
		if err := core.InstallPMMLSupport(cluster); err != nil {
			fmt.Fprintf(os.Stderr, "vsql: %v\n", err)
			os.Exit(1)
		}
		if *listen != "" {
			srv := server.New(cluster, 0)
			addr, err := srv.Listen(*listen)
			if err != nil {
				fmt.Fprintf(os.Stderr, "vsql: %v\n", err)
				os.Exit(1)
			}
			defer srv.Close()
			fmt.Printf("node 0 serving on %s\n", addr)
		}
		sess, err := cluster.Connect(0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vsql: %v\n", err)
			os.Exit(1)
		}
		defer sess.Close()
		exec = sess
		fmt.Printf("vsfabric engine: %d-node cluster (in-process). \\q to quit.\n", *nodes)
	}
	repl(exec, local)
}

func repl(exec executor, cluster *vertica.Cluster) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var pending strings.Builder
	fmt.Print("vsql=> ")
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case `\q`, "exit", "quit":
			return
		case `\dt`:
			runAndPrint(exec, "SELECT table_name, is_segmented, segment_expression FROM v_catalog.tables")
			fmt.Print("vsql=> ")
			continue
		case `\dv`:
			runAndPrint(exec, "SELECT view_name, view_definition FROM v_catalog.views")
			fmt.Print("vsql=> ")
			continue
		case `\dn`:
			runAndPrint(exec, "SELECT node_id, node_address, node_state FROM v_catalog.nodes")
			fmt.Print("vsql=> ")
			continue
		}
		if arg, ok := strings.CutPrefix(strings.TrimSpace(line), `\trace`); ok {
			exportTrace(cluster, strings.TrimSpace(arg))
			fmt.Print("vsql=> ")
			continue
		}
		pending.WriteString(line)
		if strings.Contains(line, ";") {
			sql := strings.TrimSuffix(strings.TrimSpace(pending.String()), ";")
			pending.Reset()
			if sql != "" {
				runAndPrint(exec, sql)
			}
			fmt.Print("vsql=> ")
		} else {
			pending.WriteByte(' ')
			fmt.Print("vsql-> ")
		}
	}
}

// exportTrace writes the in-process cluster's collected spans as a Chrome
// trace-event file, loadable in chrome://tracing or Perfetto.
func exportTrace(cluster *vertica.Cluster, path string) {
	if cluster == nil {
		fmt.Println(`ERROR: \trace needs the in-process engine (not -connect)`)
		return
	}
	if path == "" {
		fmt.Println(`usage: \trace <file>`)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Printf("ERROR: %v\n", err)
		return
	}
	err = cluster.Obs().WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Printf("ERROR: %v\n", err)
		return
	}
	fmt.Printf("trace written to %s\n", path)
}

func runAndPrint(exec executor, sql string) {
	res, err := exec.Execute(sql)
	if err != nil {
		fmt.Printf("ERROR: %v\n", err)
		return
	}
	switch {
	case len(res.Schema.Cols) > 0:
		printTable(res)
	case res.Copy != nil:
		fmt.Printf("COPY %d (rejected %d)\n", res.Copy.Loaded, res.Copy.Rejected)
	default:
		fmt.Printf("OK (%d rows affected)\n", res.RowsAffected)
	}
}

func printTable(res *vertica.Result) {
	widths := make([]int, len(res.Schema.Cols))
	header := make([]string, len(res.Schema.Cols))
	for i, c := range res.Schema.Cols {
		header[i] = c.Name
		widths[i] = len(c.Name)
	}
	cells := make([][]string, len(res.Rows))
	for ri, r := range res.Rows {
		cells[ri] = make([]string, len(r))
		for ci, v := range r {
			cells[ri][ci] = formatValue(v)
			if len(cells[ri][ci]) > widths[ci] {
				widths[ci] = len(cells[ri][ci])
			}
		}
	}
	line := func(row []string) {
		for i, c := range row {
			if i > 0 {
				fmt.Print(" | ")
			}
			fmt.Printf("%-*s", widths[i], c)
		}
		fmt.Println()
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range cells {
		line(r)
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}

func formatValue(v types.Value) string {
	if v.Null {
		return "NULL"
	}
	return v.String()
}
