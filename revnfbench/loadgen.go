package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"

	"revnf/internal/serve"
	"revnf/internal/wire"
)

// streamClient is the open-loop generator for one persistent stream
// connection. Requests fall due in bursts of perTick every tickPeriod
// from start; the writer wakes when the next burst is due and writes and
// flushes everything due by then, so a late wake-up sends a larger burst
// instead of drifting. The reader decodes the in-order decisions and
// times each from its request's due time.
type streamClient struct {
	conn  net.Conn
	frame bool
	reqs  []serve.AdmissionRequest
	// start is the schedule origin (nanotime); perTick requests fall due
	// at each tickPeriod after it.
	start   int64
	perTick int
	// window caps requests written but not yet answered.
	window int
	// onDecision is called by the reader for request k's decision.
	onDecision func(k int, d *wire.Decision, now int64)

	// lags records, per wake-up, how late the writer was (ns).
	lags []int64
	// sent counts requests written; received counts decisions read.
	sent, received int
	// failure is the first error record or transport error, if any.
	failure error
}

func (c *streamClient) due(k int) int64 {
	return c.start + int64(k/c.perTick)*int64(tickPeriod)
}

// run writes every request on schedule and reads every decision; it
// returns once the reader is done. Requests without a decision are the
// caller's failures (len(reqs) - received).
func (c *streamClient) run() {
	tokens := make(chan struct{}, c.window)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		c.read(tokens)
	}()
	werr := c.write(tokens, readerDone)
	if tc, ok := c.conn.(*net.TCPConn); ok {
		// Half-close: the server decides what it has, answers, and closes.
		_ = tc.CloseWrite() // a failed half-close surfaces as missing decisions
	}
	<-readerDone
	if c.failure == nil {
		c.failure = werr
	}
}

func (c *streamClient) write(tokens chan struct{}, readerDone <-chan struct{}) error {
	clock, err := newBurstClock(c.start, tickPeriod)
	if err != nil {
		return err
	}
	defer clock.close()
	bw := bufio.NewWriterSize(c.conn, 64<<10)
	var buf []byte
	for k := 0; k < len(c.reqs); {
		for c.due(k) > nanotime() {
			if err := clock.wait(); err != nil {
				return err
			}
		}
		now := nanotime()
		c.lags = append(c.lags, now-c.due(k))
		for ; k < len(c.reqs) && c.due(k) <= now; k++ {
			select {
			case tokens <- struct{}{}:
			default:
				// The window is full: flush what is buffered before waiting,
				// or the decisions that free the window are never produced.
				if err := bw.Flush(); err != nil {
					return fmt.Errorf("flush: %w", err)
				}
				select {
				case tokens <- struct{}{}:
				case <-readerDone:
					return errors.New("reader stopped before every request was answered")
				}
			}
			r := &c.reqs[k]
			wr := wire.Request{VNF: r.VNF, Arrival: r.Arrival, Duration: r.Duration,
				Reliability: r.Reliability, Payment: r.Payment, Scheme: r.Scheme}
			if c.frame {
				var err error
				if buf, err = wire.AppendRequestFrame(buf[:0], &wr); err != nil {
					return fmt.Errorf("encode request %d: %w", k, err)
				}
			} else {
				buf = wire.AppendNDJSONRequest(buf[:0], &wr)
			}
			if _, err := bw.Write(buf); err != nil {
				return fmt.Errorf("write: %w", err)
			}
			c.sent++
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
	}
	return nil
}

func (c *streamClient) read(tokens <-chan struct{}) {
	br := bufio.NewReaderSize(c.conn, 64<<10)
	fr := wire.NewFrameReader(br)
	var d wire.Decision
	for k := 0; k < len(c.reqs); k++ {
		var err error
		if c.frame {
			err = readFrameDecision(fr, &d)
		} else {
			err = readNDJSONDecision(br, &d)
		}
		if err != nil {
			c.failure = fmt.Errorf("decision %d: %w", k, err)
			return
		}
		now := nanotime()
		<-tokens
		c.received++
		c.onDecision(k, &d, now)
	}
}

func readFrameDecision(fr *wire.FrameReader, d *wire.Decision) error {
	typ, payload, err := fr.Next()
	if err != nil {
		return err
	}
	switch typ {
	case wire.FrameDecision:
		return wire.DecodeDecision(payload, d)
	case wire.FrameError:
		code, reason, detail, err := wire.DecodeError(payload)
		if err != nil {
			return err
		}
		return fmt.Errorf("error frame %d %s: %s", code, reason.Reason(), detail)
	default:
		return fmt.Errorf("unexpected frame type %d", typ)
	}
}

func readNDJSONDecision(br *bufio.Reader, d *wire.Decision) error {
	line, err := br.ReadSlice('\n')
	if err != nil {
		if errors.Is(err, io.EOF) && len(line) == 0 {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return wire.DecodeNDJSONDecision(line, d)
}
