package main

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fault is what the fake responder does wrong.
type fault int

const (
	faultNone          fault = iota
	faultWrongKey            // every GET outside MULTI answers with the next key's value
	faultDropReply           // the 50th reply is never sent
	faultBreakConserve       // every INCRBY by -1 takes 2
)

// fakeServe answers the benchmark's requests from a Go map until conn
// closes: a correct responder except for the planted fault.
func fakeServe(conn net.Conn, w *workload, f fault) {
	defer conn.Close()
	store := map[string]string{}
	for i := int32(0); i < int32(w.keys); i++ {
		fields := strings.Fields(string(appendPopulate(nil, w, i)))
		store[fields[1]] = fields[2]
	}
	key := func(i int) string { return string(appendKey(nil, int32(i))) }
	exec := func(args []string, inMulti bool) string {
		switch args[0] {
		case "GET":
			k := args[1]
			if f == faultWrongKey && !inMulti {
				i, _ := strconv.Atoi(k[1:])
				k = key((i + 1) % w.keys)
			}
			return fmt.Sprintf("$%d\r\n%s\r\n", len(store[k]), store[k])
		case "SET":
			store[args[1]] = args[2]
			return "+OK\r\n"
		case "INCRBY":
			n, _ := strconv.Atoi(store[args[1]])
			d, _ := strconv.Atoi(args[2])
			if f == faultBreakConserve && d < 0 {
				d--
			}
			store[args[1]] = strconv.Itoa(n + d)
			return fmt.Sprintf(":%d\r\n", n+d)
		}
		return "-ERR unknown command\r\n"
	}

	var queued [][]string
	inMulti := false
	replies := 0
	send := func(s string) bool {
		if replies++; f == faultDropReply && replies == 50 {
			return true
		}
		_, err := conn.Write([]byte(s))
		return err == nil
	}
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		args := strings.Fields(sc.Text())
		var out string
		switch {
		case args[0] == "MULTI":
			inMulti, queued, out = true, nil, "+OK\r\n"
		case args[0] == "EXEC":
			out = fmt.Sprintf("*%d\r\n", len(queued))
			for _, q := range queued {
				out += exec(q, true)
			}
			inMulti = false
		case inMulti:
			queued, out = append(queued, args), "+QUEUED\r\n"
		default:
			out = exec(args, false)
		}
		if !send(out) {
			return
		}
	}
}

// driveFake runs one closed-loop client against the fake responder for a
// fixed number of requests and returns what its verifier concluded.
func driveFake(t *testing.T, w *workload, f fault, requests int) *worker {
	t.Helper()
	client, server := net.Pipe()
	go fakeServe(server, w, f)
	defer client.Close()
	// The benchmark gives a missing reply replyTimeout; the test cannot
	// wait that long, and the mechanism is the same deadline.
	if err := client.SetDeadline(time.Now().Add(500 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	c := &tcpClient{
		worker: &worker{lat: make([]int64, 0, requests)},
		conn:   client,
		gen:    newGenerator(w, 7, 0),
		ver:    verifier{rr: newReplyReader(client)},
	}
	for i := 0; i < requests && c.err == nil; i++ {
		c.roundTrip(c.gen.next())
	}
	if w.transfer && c.err == nil {
		c.roundTrip([]op{{kind: opSnapshot}}) // the segment's final conservation check
	}
	return c.worker
}

func tcpWorkloads() []*workload {
	var ws []*workload
	for i := range workloads {
		if workloads[i].tcp {
			ws = append(ws, &workloads[i])
		}
	}
	return ws
}

// TestVerifierAcceptsCorrectResponder: a responder with no fault passes
// every check, so a failure below is the fault's and not the harness's.
func TestVerifierAcceptsCorrectResponder(t *testing.T) {
	for _, w := range tcpWorkloads() {
		wk := driveFake(t, w, faultNone, 200)
		if wk.err != nil || wk.failed != 0 || wk.attempted == 0 {
			t.Errorf("%s: attempted %d failed %d err %v; want a clean run", w.name, wk.attempted, wk.failed, wk.err)
		}
	}
}

// TestVerifierCatchesPlantedFaults: the harness must distrust itself. Each
// planted fault has to make fail_ratio non-zero on a workload that can
// see it.
func TestVerifierCatchesPlantedFaults(t *testing.T) {
	cases := []struct {
		name     string
		workload string
		fault    fault
		wantErr  bool // the connection is abandoned (reply timed out)
	}{
		{"another key's value", "kv-rtt", faultWrongKey, false},
		{"another key's value, pipelined", "kv-pipeline", faultWrongKey, false},
		{"dropped reply", "kv-rtt", faultDropReply, true},
		{"dropped reply inside a group", "kv-transfer", faultDropReply, true},
		{"broken conservation", "kv-transfer", faultBreakConserve, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wk := driveFake(t, findWorkload(tc.workload), tc.fault, 200)
			ratio := float64(wk.failed) / float64(wk.attempted)
			if wk.failed == 0 || ratio <= 0 {
				t.Fatalf("fail_ratio = %d/%d: the fault went unnoticed", wk.failed, wk.attempted)
			}
			if (wk.err != nil) != tc.wantErr {
				t.Fatalf("connection error = %v, want error: %v", wk.err, tc.wantErr)
			}
			t.Logf("fail_ratio = %d/%d = %.4f, err = %v", wk.failed, wk.attempted, ratio, wk.err)
		})
	}
}

// TestLibCallCatchesWrongValue plants the lib-map fault: a key holding
// another key's value must fail its Get.
func TestLibCallCatchesWrongValue(t *testing.T) {
	w := findWorkload("lib-map")
	for _, eng := range engines {
		mp, err := newWireMap(w, eng)
		if err != nil {
			t.Fatal(err)
		}
		if !libCall(mp, &op{kind: opGet, a: 5}) || !libCall(mp, &op{kind: opSet, a: 5, nonce: 9}) {
			t.Fatalf("%s: a correct map failed verification", eng)
		}
		if _, _, err := mp.Put(wireKey(5), wireValue(6, 0)); err != nil {
			t.Fatal(err)
		}
		if libCall(mp, &op{kind: opGet, a: 5}) {
			t.Fatalf("%s: key 5 holds key 6's value and the check passed", eng)
		}
	}
}
