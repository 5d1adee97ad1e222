package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"syscall"
	"time"
)

// conn is a minimal HTTP/1.1 client over one keep-alive TCP connection. The
// socket is a plain blocking one driven by read and write system calls, not
// Go's network poller: a load worker runs on its own OS thread, and a
// blocking read wakes that thread directly when the answer arrives instead
// of handing the goroutine over from the poller's thread, which costs the
// harness CPU and adds jitter to every measured latency.
type conn struct {
	addr *syscall.SockaddrInet4
	fd   int
	br   *bufio.Reader
	out  []byte
	body bytes.Buffer
}

// ioTimeout bounds every socket read and write, so a wedged server fails
// the run instead of hanging it.
const ioTimeout = 30 * time.Second

func dial(addr string) (*conn, error) {
	ap, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		return nil, err
	}
	c := &conn{addr: &syscall.SockaddrInet4{Port: ap.Port}, fd: -1}
	copy(c.addr.Addr[:], ap.IP.To4())
	return c, c.redial()
}

func (c *conn) redial() error {
	c.close()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return err
	}
	tv := syscall.NsecToTimeval(int64(ioTimeout))
	for _, err := range []error{
		syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1),
		syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv),
		syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_SNDTIMEO, &tv),
		connect(fd, c.addr),
	} {
		if err != nil {
			syscall.Close(fd)
			return fmt.Errorf("connect %d.%d.%d.%d:%d: %w", c.addr.Addr[0], c.addr.Addr[1], c.addr.Addr[2], c.addr.Addr[3], c.addr.Port, err)
		}
	}
	c.fd = fd
	c.br = bufio.NewReaderSize(fdReader(fd), 64<<10)
	return nil
}

func connect(fd int, sa syscall.Sockaddr) error {
	for {
		if err := syscall.Connect(fd, sa); err != syscall.EINTR {
			return err
		}
	}
}

func (c *conn) close() {
	if c.fd >= 0 {
		syscall.Close(c.fd)
		c.fd = -1
	}
}

// fdReader reads a blocking socket.
type fdReader int

func (fd fdReader) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(int(fd), p)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return 0, err
		case n == 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

func writeAll(fd int, b []byte) error {
	for len(b) > 0 {
		n, err := syscall.Write(fd, b)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

// do sends one request and reads the whole response. The returned body is
// owned by the conn and valid until the next call.
func (c *conn) do(r wireReq) (int, []byte, error) {
	if c.fd < 0 {
		if err := c.redial(); err != nil {
			return 0, nil, err
		}
	}
	b := append(c.out[:0], r.method...)
	b = append(b, ' ')
	b = append(b, r.target...)
	b = append(b, " HTTP/1.1\r\nHost: ftbfsd\r\n"...)
	if r.method != "GET" {
		if r.ctype != "" {
			b = append(b, "Content-Type: "...)
			b = append(b, r.ctype...)
			b = append(b, "\r\n"...)
		}
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(r.body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, r.body...)
	c.out = b
	if err := writeAll(c.fd, b); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, c.body.Bytes(), err
}

// call sends a control-plane request with an optional JSON body and decodes
// a JSON answer into out (when non-nil). Any status other than want is an
// error.
func (c *conn) call(method, target string, in any, want int, out any) error {
	r := wireReq{method: method, target: target}
	if in != nil {
		body, err := json.Marshal(in)
		if err != nil {
			return err
		}
		r.ctype, r.body = "application/json", body
	}
	status, body, err := c.do(r)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, target, err)
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d: %s", method, target, status, bytes.TrimSpace(body))
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return fmt.Errorf("%s %s: decode answer: %w", method, target, err)
		}
	}
	return nil
}
