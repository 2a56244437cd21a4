package main

import (
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// Fingerprint records where a result was measured, so two results are
// compared only when their machines match.
type Fingerprint struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	// SockRcvBuf / SockSndBuf are what the kernel granted of the 8 MB the
	// relay asks for (Linux reports twice the usable size).
	SockRcvBuf int    `json:"sock_rcvbuf_bytes"`
	SockSndBuf int    `json:"sock_sndbuf_bytes"`
	Link       string `json:"link"`
}

func fingerprint() Fingerprint {
	fp := Fingerprint{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		CPUModel:   cpuModel(),
		Link:       "loopback, no real link",
	}
	fp.SockRcvBuf, fp.SockSndBuf = grantedSockBufs()
	return fp
}

// commit asks git; a checkout without history reports "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// grantedSockBufs opens a UDP socket, asks for the relay's buffer size and
// reads back what the kernel granted.
func grantedSockBufs() (rcv, snd int) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, 0
	}
	defer c.Close()
	_ = c.SetReadBuffer(relaySockBuf)
	_ = c.SetWriteBuffer(relaySockBuf)
	rc, err := c.SyscallConn()
	if err != nil {
		return 0, 0
	}
	_ = rc.Control(func(fd uintptr) {
		rcv, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
		snd, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF)
	})
	return rcv, snd
}
