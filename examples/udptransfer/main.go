// udptransfer: runs real TCP-TACK transfers over UDP sockets on loopback
// — both endpoints in one process — and prints goodput plus the
// data-to-acknowledgment ratio. This exercises the identical sans-IO
// protocol engine the simulator drives, over the kernel's real UDP path,
// with any number of concurrent connections multiplexed on one server
// socket.
//
// In TACK mode each flow carries its payload on a multiplexed stream
// (one stream per connection — the single-pipe workload expressed through
// the stream API; -streams N fans each connection out to N concurrent
// streams). Legacy mode has no stream layer and keeps the bounded
// synthetic pipe (Config.TransferBytes).
//
// Run with: go run ./examples/udptransfer [-bytes 33554432] [-mode tack|legacy] [-flows 1] [-streams 1]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"sync"
	"time"

	"github.com/tacktp/tack"
)

func main() {
	size := flag.Int64("bytes", 32<<20, "transfer size in bytes (per flow)")
	mode := flag.String("mode", "tack", "protocol mode: tack or legacy")
	flows := flag.Int("flows", 1, "concurrent connections")
	nStreams := flag.Int("streams", 1, "streams per connection (tack mode)")
	flag.Parse()

	cfg := tack.Config{Mode: tack.ModeTACK, CC: "bbr", RichTACK: true}
	useStreams := *mode == "tack"
	switch *mode {
	case "tack":
		streams := tack.DefaultStreamConfig()
		streams.MaxStreams = *nStreams + 1
		cfg.Streams = &streams
	case "legacy":
		cfg.Mode = tack.ModeLegacy
		cfg.TransferBytes = *size
	default:
		log.Fatalf("bad -mode %q: want tack or legacy", *mode)
	}

	srv, err := tack.Listen("127.0.0.1:0", tack.EndpointConfig{Transport: cfg})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	cli, err := tack.Listen("127.0.0.1:0", tack.EndpointConfig{Transport: cfg})
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	// Server side: accept every connection; in stream mode drain each
	// connection's streams to EOF, in legacy mode wait for the bounded
	// transfer to complete.
	served := make(chan *tack.Conn, *flows)
	go func() {
		for i := 0; i < *flows; i++ {
			c, err := srv.Accept()
			if err != nil {
				log.Fatalf("accept: %v", err)
			}
			go func() {
				if useStreams {
					var drain sync.WaitGroup
					for s := 0; s < *nStreams; s++ {
						rs, err := c.AcceptStream(time.Minute)
						if err != nil {
							log.Fatalf("server conn %d accept stream: %v", c.ConnID(), err)
						}
						drain.Add(1)
						go func(rs *tack.RecvStream) {
							defer drain.Done()
							if _, err := io.Copy(io.Discard, rs); err != nil {
								log.Fatalf("server conn %d stream %d: %v", c.ConnID(), rs.ID(), err)
							}
						}(rs)
					}
					drain.Wait()
				} else if err := c.Wait(5 * time.Minute); err != nil {
					log.Fatalf("server conn %d: %v", c.ConnID(), err)
				}
				served <- c
			}()
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	conns := make([]*tack.Conn, *flows)
	for i := range conns {
		c, err := cli.Dial(srv.LocalAddr().String())
		if err != nil {
			log.Fatalf("dial: %v", err)
		}
		conns[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !useStreams {
				if err := c.Wait(5 * time.Minute); err != nil {
					log.Fatalf("conn %d: %v", c.ConnID(), err)
				}
				return
			}
			// Split the flow's bytes across its streams; each stream
			// writes its share and FINs.
			var sw sync.WaitGroup
			share := *size / int64(*nStreams)
			for s := 0; s < *nStreams; s++ {
				ss, err := c.OpenStream()
				if err != nil {
					log.Fatalf("conn %d open stream: %v", c.ConnID(), err)
				}
				sw.Add(1)
				go func(ss *tack.SendStream, n int64) {
					defer sw.Done()
					chunk := make([]byte, 64<<10)
					for sent := int64(0); sent < n; {
						step := int64(len(chunk))
						if n-sent < step {
							step = n - sent
						}
						if _, err := ss.Write(chunk[:step]); err != nil {
							log.Fatalf("stream %d write: %v", ss.ID(), err)
						}
						sent += step
					}
					ss.Close()
				}(ss, share)
			}
			sw.Wait()
		}()
	}
	wg.Wait()

	// In stream mode the transfer is done when every server-side drain
	// saw EOF; collect the served connections (and with them, elapsed).
	servedConns := make([]*tack.Conn, 0, *flows)
	for i := 0; i < *flows; i++ {
		servedConns = append(servedConns, <-served)
	}
	elapsed := time.Since(start)

	// Close stream-mode connections gracefully so the final statistics
	// are stable to read.
	if useStreams {
		for _, c := range conns {
			c.Close()
			if err := c.Wait(time.Minute); err != nil {
				log.Fatalf("close conn %d: %v", c.ConnID(), err)
			}
		}
		for _, c := range servedConns {
			if err := c.Wait(time.Minute); err != nil {
				log.Fatalf("server close conn %d: %v", c.ConnID(), err)
			}
		}
	}

	total := *size * int64(*flows)
	fmt.Printf("mode=%s: %d flow(s) x %d MiB over loopback UDP in %v (%.0f Mbit/s aggregate)\n",
		*mode, *flows, *size>>20, elapsed.Round(time.Millisecond),
		float64(total)*8/elapsed.Seconds()/1e6)
	var st tack.SenderStats
	for _, c := range conns {
		s := c.Sender().Stats
		st.DataPackets += s.DataPackets
		st.Retransmits += s.Retransmits
		st.Timeouts += s.Timeouts
		st.AcksReceived += s.AcksReceived
	}
	fmt.Printf("senders: %d data pkts (%d retx, %d timeouts), %d acks received\n",
		st.DataPackets, st.Retransmits, st.Timeouts, st.AcksReceived)
	var rs tack.ReceiverStats
	for _, c := range servedConns {
		r := c.Receiver().Stats
		rs.DataPackets += r.DataPackets
		rs.TACKsSent += r.TACKsSent
		rs.IACKsSent += r.IACKsSent
	}
	fmt.Printf("receivers: %d TACKs + %d IACKs => 1 ack per %.1f data packets\n",
		rs.TACKsSent, rs.IACKsSent, float64(rs.DataPackets)/float64(rs.AcksSent()))
}
