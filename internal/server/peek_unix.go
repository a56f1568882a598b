//go:build unix

package server

import (
	"net"
	"syscall"
)

// peekOpen reports whether nc's peer is still there with nothing unread: a
// one-byte MSG_PEEK on the socket, which the runtime keeps non-blocking,
// answers EAGAIN for an open, quiet connection, 0 bytes once the peer closed,
// and a byte when it sent one. The byte stays in the socket.
func peekOpen(nc net.Conn) bool {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return true
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	open := false
	err = rc.Read(func(fd uintptr) bool {
		var b [1]byte
		_, _, perr := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK)
		open = perr == syscall.EAGAIN || perr == syscall.EWOULDBLOCK
		return true // one look; never wait for the socket to turn readable
	})
	return err == nil && open
}
