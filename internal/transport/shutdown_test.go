package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// TestServerShutdownIdle drains a server with no executing RPCs: the
// drain must finish promptly, kick parked connections, and refuse new
// dials.
func TestServerShutdownIdle(t *testing.T) {
	srv, client := startServer(t, 1, 2, 0, 10)
	if _, err := client.Ping(); err != nil {
		t.Fatalf("ping before shutdown: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("idle shutdown: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("idle shutdown did not complete")
	}

	if _, err := Dial(srv.Addr(), DialOptions{Timeout: time.Second}); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// holdDispatch installs a test gate that parks every dispatch until
// release is closed, and signals entered when the first one arrives.
// Tests wait on entered rather than polling active > 0: the dial's
// first ping in startServer decrements active only after its response is
// written, so the counter can still read 1 when the test starts — and a
// Shutdown begun then closes the listener before the test's own
// connection was ever accepted.
func holdDispatch(srv *Server) (entered <-chan struct{}, release chan struct{}) {
	in := make(chan struct{}, 1)
	release = make(chan struct{})
	hold := func() {
		select {
		case in <- struct{}{}:
		default:
		}
		<-release
	}
	srv.gate.Store(&hold)
	return in, release
}

// writePing sends one v2 ping frame on a raw connection.
func writePing(t *testing.T, conn net.Conn) {
	t.Helper()
	frame, err := appendWireRequest(nil, 1, &request{Type: typePing})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// TestServerShutdownWaitsForInFlight pins a ping inside dispatch via
// the server's test gate, then verifies Shutdown waits for it
// (graceful drain) instead of cutting the connection, and that the
// blocked client still receives its response.
func TestServerShutdownWaitsForInFlight(t *testing.T) {
	srv, _ := startServer(t, 2, 1.5, 0, 10)

	// Pin the next dispatch until we release it.
	entered, release := holdDispatch(srv)

	// Raw connection so we control framing directly.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	writePing(t, conn)
	// Wait until the handler has read the frame and is blocked on the
	// gate.
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("handler never started executing the RPC")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()

	// The drain must not finish while the RPC is executing.
	select {
	case err := <-done:
		t.Fatalf("shutdown returned %v while an RPC was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release) // let the RPC finish
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown after drain: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("shutdown did not complete after RPC finished")
	}

	// The in-flight RPC's response must have been written before the
	// connection was closed.
	buf, err := readFrameBody(conn)
	if err != nil {
		t.Fatalf("in-flight response lost during drain: %v", err)
	}
	_, resp, err := decodeWireResponse(*buf, nil)
	putFrameBuf(buf)
	if err != nil || resp.NodeID == "" || resp.Error != "" {
		t.Fatalf("unexpected ping response %+v", resp)
	}
}

// TestServerShutdownDeadline verifies an expiring drain budget falls
// back to a forced close and surfaces the context error.
func TestServerShutdownDeadline(t *testing.T) {
	srv, _ := startServer(t, 3, 1, 0, 10)

	entered, release := holdDispatch(srv)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	writePing(t, conn)
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("handler never started executing the RPC")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = srv.Shutdown(ctx)
	close(release)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	srv.wg.Wait() // handlers unwind once the gate is released
}
