//go:build loadtest

// End-to-end load test of the real uafserve binary (not the in-process
// handler): builds cmd/uafserve and cmd/uafcheck, boots the daemon on
// an ephemeral port, drives it with concurrent clients over the shared
// corpus, and checks the acceptance bar of the service:
//
//   - every server response is byte-identical to `uafcheck -par 1
//     -format=json` for the same file;
//   - an overloaded server answers 429 (never a dropped connection);
//   - identical concurrent requests are deduplicated (dedup counter);
//   - SIGTERM delivers every in-flight response before the process
//     exits cleanly.
//
// Run via `make loadtest` (go test -race -tags loadtest ./internal/server/).
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"uafcheck/internal/obs"
)

// buildBinary compiles a command into dir and returns the binary path.
func buildBinary(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// startServer boots uafserve on an ephemeral port and returns its base
// URL plus the running process.
func startServer(t *testing.T, bin string, extraArgs ...string) (string, *exec.Cmd) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if addr, ok := strings.CutPrefix(line, "uafserve: listening on "); ok {
			go io.Copy(io.Discard, stdout) // keep draining so the child never blocks
			return "http://" + addr, cmd
		}
	}
	t.Fatalf("uafserve never announced its address (scanner err: %v)", sc.Err())
	return "", nil
}

func postSrc(t *testing.T, base, name, src string, deadlineMS int) (*http.Response, []byte) {
	t.Helper()
	body := fmt.Sprintf(`{"name":%q,"src":%q,"options":{"deadline_ms":%d}}`, name, src, deadlineMS)
	resp, err := http.Post(base+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return resp, out
}

func TestLoadEndToEnd(t *testing.T) {
	dir := t.TempDir()
	serveBin := buildBinary(t, dir, "uafcheck/cmd/uafserve")
	checkBin := buildBinary(t, dir, "uafcheck/cmd/uafcheck")

	// Every analysis sleeps 50ms first, so the dedup, overload and drain
	// steps find their requests in flight together however fast the
	// analysis itself is.
	base, cmd := startServer(t, serveBin,
		"-inflight", "2", "-queue", "2", "-cache-dir", filepath.Join(dir, "cache"),
		"-faults", "analysis.delay=delay:1:0:50ms")
	defer cmd.Process.Kill()

	files := loadCorpus(t)

	// 1. Byte-identity: server response == CLI -par 1 -format=json, for
	// every corpus file. The CLI reads from disk, so hand it the real
	// paths; the server gets (basename, contents).
	for _, f := range files {
		cli := exec.Command(checkBin, "-par", "1", "-format=json", filepath.Join(corpusDir, f.Name))
		cli.Dir = "."
		cliOut, _ := cli.Output() // exit 1 just means warnings
		// The CLI names results by path; rewrite to the basename the
		// server was given so the comparison targets the analysis bytes.
		cliLine := bytes.TrimSuffix(cliOut, []byte("\n"))
		cliLine = bytes.Replace(cliLine,
			[]byte(fmt.Sprintf(`"name":%q`, filepath.Join(corpusDir, f.Name))),
			[]byte(fmt.Sprintf(`"name":%q`, f.Name)), 1)
		cliLine = bytes.ReplaceAll(cliLine,
			[]byte(filepath.Join(corpusDir, f.Name)), []byte(f.Name))

		resp, body := postSrc(t, base, f.Name, f.Src, 0)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", f.Name, resp.StatusCode, body)
		}
		if got := bytes.TrimSuffix(body, []byte("\n")); !bytes.Equal(got, cliLine) {
			t.Errorf("%s: server and CLI bytes differ\nserver: %s\n   cli: %s", f.Name, got, cliLine)
		}
	}

	// 2. Dedup: a concurrent burst of identical slow requests. At least
	// one follower must ride the leader's flight.
	slow := fanoutSrc("dedup", 12)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postSrc(t, base, "dedup.chpl", slow, 0)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("dedup burst: status %d: %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()

	// 3. Overload: distinct slow requests past slots+queue must draw
	// 429s with Retry-After, and every client still gets an HTTP
	// response (http.Post errors on dropped connections). While the
	// burst is in flight, the observability surface must stay
	// responsive: /debug/requests and /statusz answer 200 under load.
	var rejected, succeeded int
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("ov%d", i)
			resp, _ := postSrc(t, base, name+".chpl", fanoutSrc(name, 12), 300)
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				succeeded++
			case http.StatusTooManyRequests:
				rejected++
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
			default:
				t.Errorf("overload: unexpected status %d", resp.StatusCode)
			}
		}(i)
	}
	for _, probe := range []string{"/debug/requests", "/statusz"} {
		resp, err := http.Get(base + probe)
		if err != nil {
			t.Fatalf("GET %s during load: %v", probe, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s during load: status %d", probe, resp.StatusCode)
		}
		if !json.Valid(body) {
			t.Errorf("GET %s during load: invalid JSON: %s", probe, body)
		}
	}
	wg.Wait()
	if succeeded == 0 || rejected == 0 {
		t.Fatalf("overload: ok=%d rejected=%d, want both > 0", succeeded, rejected)
	}

	// 3b. Flight recorder: a fresh request's trace ID (echoed in the
	// traceparent header) resolves to a span-tree digest.
	respT, _ := postSrc(t, base, "traced.chpl", fanoutSrc("traced", 6), 0)
	parts := strings.Split(respT.Header.Get("traceparent"), "-")
	if len(parts) != 4 {
		t.Fatalf("bad traceparent %q", respT.Header.Get("traceparent"))
	}
	respD, err := http.Get(base + "/debug/requests?trace=" + parts[1])
	if err != nil {
		t.Fatal(err)
	}
	digest, _ := io.ReadAll(respD.Body)
	respD.Body.Close()
	if respD.StatusCode != http.StatusOK {
		t.Errorf("trace lookup: status %d: %s", respD.StatusCode, digest)
	}
	for _, want := range []string{`"spans"`, `"pps-wave"`, `"route":"/v1/analyze"`} {
		if !strings.Contains(string(digest), want) {
			t.Errorf("digest missing %s:\n%s", want, digest)
		}
	}

	// 4. Counters: the daemon's own view must agree, and the whole
	// exposition must parse as valid Prometheus text format.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := obs.ValidatePromText(metrics); err != nil {
		t.Errorf("/metrics fails prometheus lint: %v", err)
	}
	for _, probe := range []string{"uafcheck_server_dedup_hits", "uafcheck_server_rejects"} {
		val := int64(-1)
		for _, line := range strings.Split(string(metrics), "\n") {
			if strings.HasPrefix(line, probe+" ") {
				fmt.Sscanf(line, probe+" %d", &val)
			}
		}
		if val <= 0 {
			t.Errorf("%s = %d, want > 0\n%s", probe, val, metrics)
		}
	}

	// 5. Graceful shutdown: launch in-flight work, SIGTERM the daemon,
	// and require complete 200 responses plus a clean exit.
	results := make(chan int, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			name := fmt.Sprintf("drain%d", i)
			resp, body := postSrc(t, base, name+".chpl", fanoutSrc(name, 11), 0)
			if resp.StatusCode == http.StatusOK && !bytes.Contains(body, []byte(`"status"`)) {
				t.Errorf("drain %d: truncated body %s", i, body)
			}
			results <- resp.StatusCode
		}(i)
	}
	time.Sleep(150 * time.Millisecond) // let the requests reach the server
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var delivered int
	for i := 0; i < 4; i++ {
		if code := <-results; code == http.StatusOK {
			delivered++
		}
	}
	// Requests admitted before the drain must all complete; ones that
	// arrived after may be 503, but none may be lost mid-body.
	if delivered == 0 {
		t.Error("graceful shutdown delivered no in-flight results")
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("uafserve exited uncleanly: %v", err)
	}
}
