package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"sonic/internal/core"
)

// The control link between the central SONIC server and its FM
// transmitters (§3.1: transmitters "can receive simplified webpages to be
// encoded via sound, and then transmit them"). Transmitters are clients:
// they dial in, identify themselves, and poll for pages to broadcast.
//
// Wire format: every message is  type(1) length(4 BE) payload.
const (
	msgHello byte = 0x01 // payload: transmitter id (utf-8)
	msgPoll  byte = 0x02 // payload: empty
	msgPage  byte = 0x03 // payload: pageID(2) urlLen(2) url bundleBlob
	msgEmpty byte = 0x04 // payload: empty
)

// Payload bounds, by direction. A transmitter only ever sends its id and
// empty polls, so the server — which reads from a peer before it has said
// who it is — allocates at most maxHelloSize for it; the transmitter reads
// page bundles from the server it dialled.
const (
	maxHelloSize = 256
	maxMsgSize   = 64 << 20 // a page bundle plus slack
)

// fromTransmitter is the payload bound for messages the server reads.
func fromTransmitter(typ byte) uint32 {
	if typ == msgHello {
		return maxHelloSize
	}
	return 0
}

// fromServer is the payload bound for messages a transmitter reads.
func fromServer(byte) uint32 { return maxMsgSize }

func writeMsg(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readMsg reads one message, refusing a payload longer than limit
// allows for the announced type. The payload buffer grows with the bytes
// that arrive, never from the announced length alone, so a header that
// claims 64 MiB costs what the peer sends; a payload shorter than
// announced is io.ErrUnexpectedEOF.
func readMsg(r io.Reader, limit func(typ byte) uint32) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > limit(hdr[0]) {
		return 0, nil, fmt.Errorf("server: message %#x of %d bytes exceeds limit", hdr[0], n)
	}
	if n == 0 {
		return hdr[0], nil, nil
	}
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return 0, nil, err
	}
	if len(payload) < int(n) {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return hdr[0], payload, nil
}

// Serve accepts transmitter connections on l until the listener is
// closed. Each connection is handled on its own goroutine.
func (s *Server) Serve(l net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.handleConn(conn)
		}()
	}
}

// handleConn speaks the poll protocol with one transmitter.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	typ, payload, err := readMsg(br, fromTransmitter)
	if err != nil || typ != msgHello {
		return
	}
	txID := string(payload)

	for {
		typ, _, err := readMsg(br, fromTransmitter)
		if err != nil {
			return
		}
		if typ != msgPoll {
			return
		}
		url, pageID, bundle, ok := s.DequeuePageAt(txID, time.Now())
		if !ok {
			if writeMsg(bw, msgEmpty, nil) != nil || bw.Flush() != nil {
				return
			}
			continue
		}
		if len(url) > math.MaxUint16 {
			return // the PAGE header cannot carry it; never send a truncated length
		}
		blob := core.MarshalBundle(bundle)
		body := make([]byte, 4+len(url)+len(blob))
		binary.BigEndian.PutUint16(body[0:2], pageID)
		binary.BigEndian.PutUint16(body[2:4], uint16(len(url)))
		copy(body[4:], url)
		copy(body[4+len(url):], blob)
		if writeMsg(bw, msgPage, body) != nil || bw.Flush() != nil {
			return
		}
	}
}

// TransmitterClient is the transmitter-side endpoint of the control link.
type TransmitterClient struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// DialTransmitter connects to the server and identifies as id.
func DialTransmitter(addr, id string) (*TransmitterClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewTransmitterClient(conn, id)
}

// NewTransmitterClient wraps an existing connection (useful with
// net.Pipe in tests).
func NewTransmitterClient(conn net.Conn, id string) (*TransmitterClient, error) {
	c := &TransmitterClient{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	if err := writeMsg(c.bw, msgHello, []byte(id)); err != nil {
		conn.Close()
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Poll asks the server for the next page. ok is false when the queue is
// empty.
func (c *TransmitterClient) Poll() (url string, pageID uint16, b core.Bundle, ok bool, err error) {
	if err := writeMsg(c.bw, msgPoll, nil); err != nil {
		return "", 0, core.Bundle{}, false, err
	}
	if err := c.bw.Flush(); err != nil {
		return "", 0, core.Bundle{}, false, err
	}
	typ, payload, err := readMsg(c.br, fromServer)
	if err != nil {
		return "", 0, core.Bundle{}, false, err
	}
	switch typ {
	case msgEmpty:
		return "", 0, core.Bundle{}, false, nil
	case msgPage:
		if len(payload) < 4 {
			return "", 0, core.Bundle{}, false, errors.New("server: short PAGE message")
		}
		pageID = binary.BigEndian.Uint16(payload[0:2])
		urlLen := int(binary.BigEndian.Uint16(payload[2:4]))
		if 4+urlLen > len(payload) {
			return "", 0, core.Bundle{}, false, errors.New("server: bad PAGE url length")
		}
		url = string(payload[4 : 4+urlLen])
		bundle, err := core.UnmarshalBundle(payload[4+urlLen:])
		if err != nil {
			return "", 0, core.Bundle{}, false, err
		}
		return url, pageID, bundle, true, nil
	default:
		return "", 0, core.Bundle{}, false, fmt.Errorf("server: unexpected message %#x", typ)
	}
}

// Close shuts the link down.
func (c *TransmitterClient) Close() error { return c.conn.Close() }
