package main

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"genconsensus/internal/auth"
	"genconsensus/internal/kv"
)

// authSeed and the client keyring size are shared by the cluster and the
// load generator (kvnode's -auth-seed and -num-clients).
const authSeed = 7

// replyKind says what a pending reply on a connection answers.
type replyKind uint8

const (
	replyAck       replyKind = iota + 1 // SCMD → QUEUED
	replyProbeRead                      // read-your-writes READ → VAL
	replyRead                           // anonymous READ → VAL
)

// pending is one request awaiting its reply. Replies on a connection come
// back in request order, so each connection keeps them in a FIFO.
type pending struct {
	kind   replyKind
	key    int       // key id (reads)
	due    time.Time // latency origin: when the request was due
	sent   time.Time
	span   uint64     // parent span id (traced runs)
	req    uint64     // request id shared by the request's spans
	probe  *probe     // read-backs
	notify chan<- int // receives token once the reply is handled
	token  int
}

// conn is one client connection to one replica: a session connection
// (SHELLO, then SCMD and read-your-writes READ) or an anonymous one (READ
// only). The load goroutine writes; a reader goroutine matches replies
// to the FIFO and hands each to onReply.
type conn struct {
	replica int
	c       net.Conn
	w       *bufio.Writer
	r       *bufio.Reader
	key     auth.MACKey        // session key (zero on anonymous connections)
	macer   *auth.SessionMACer // nil on anonymous connections

	mu    sync.Mutex
	queue []pending
	head  int

	line    []byte      // scratch for building request lines (load goroutine)
	capture *tagCapture // traced runs: keeps the last SCMD lines for replay
}

// tagCapture keeps the most recent SCMD payloads and tags one connection
// sent, so a traced run can replay the node-side session check on them.
type tagCapture struct {
	key  auth.MACKey
	sent []tagSample
	next int
}

type tagSample struct {
	seq     uint64
	payload []byte
	tag     [auth.SessionMACSize]byte
}

const captureSize = 4096

func (t *tagCapture) add(seq uint64, payload []byte, tag [auth.SessionMACSize]byte) {
	s := tagSample{seq: seq, payload: append([]byte(nil), payload...), tag: tag}
	if len(t.sent) < captureSize {
		t.sent = append(t.sent, s)
		return
	}
	t.sent[t.next] = s
	t.next = (t.next + 1) % captureSize
}

func dialConn(replica int, addr string, client uint32) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial replica %d: %w", replica, err)
	}
	c := &conn{
		replica: replica,
		c:       nc,
		w:       bufio.NewWriterSize(nc, 64<<10),
		r:       bufio.NewReaderSize(nc, 64<<10),
	}
	if client == 0 {
		return c, nil
	}
	if err := c.handshake(client); err != nil {
		nc.Close()
		return nil, fmt.Errorf("session with replica %d: %w", replica, err)
	}
	return c, nil
}

// handshake runs SHELLO and derives the session key (the kvctl -session
// client shape).
func (c *conn) handshake(client uint32) error {
	key, ok := auth.NewClientKeyring(authSeed, 16).Key(client)
	if !ok {
		return fmt.Errorf("client %d not provisioned", client)
	}
	var nonce [auth.SessionNonceSize]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return err
	}
	mac := auth.ClientHelloMAC(key, client, nonce[:])
	fmt.Fprintf(c.w, "SHELLO %d %s %s\n", client, hex.EncodeToString(nonce[:]), hex.EncodeToString(mac))
	if err := c.w.Flush(); err != nil {
		return err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return err
	}
	f := strings.Fields(line)
	if len(f) != 3 || f[0] != "SESSION" {
		return fmt.Errorf("SHELLO reply %q", strings.TrimSpace(line))
	}
	serverNonce, err := hex.DecodeString(f[1])
	if err != nil {
		return err
	}
	ack, err := hex.DecodeString(f[2])
	if err != nil {
		return err
	}
	if !auth.CheckClientHelloAckMAC(key, client, nonce[:], serverNonce, ack) {
		return fmt.Errorf("session ack rejected")
	}
	c.key = auth.ClientSessionKey(key, client, nonce[:], serverNonce)
	c.macer = auth.NewSessionMACer(c.key)
	return nil
}

func (c *conn) push(p pending) {
	c.mu.Lock()
	c.queue = append(c.queue, p)
	c.mu.Unlock()
}

func (c *conn) pop() (pending, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.head == len(c.queue) {
		return pending{}, false
	}
	p := c.queue[c.head]
	c.head++
	if c.head == len(c.queue) {
		c.queue, c.head = c.queue[:0], 0
	}
	return p, true
}

// outstanding is the number of requests still awaiting replies.
func (c *conn) outstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue) - c.head
}

// write queues one SCMD SET for client at seq on the buffered writer.
func (c *conn) write(client uint32, seq uint64, key, value string, p pending) {
	payload := kv.AuthPayload(client, seq, "SET", key, value)
	var tag [auth.SessionMACSize]byte
	c.macer.Append(tag[:0], seq, []byte(payload))
	if c.capture != nil {
		c.capture.add(seq, []byte(payload), tag)
	}
	b := append(c.line[:0], "SCMD "...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, ' ')
	b = hex.AppendEncode(b, tag[:])
	b = append(b, " SET "...)
	b = append(b, key...)
	b = append(b, ' ')
	b = append(b, value...)
	b = append(b, '\n')
	c.line = b
	p.kind = replyAck
	c.push(p)
	c.w.Write(b) // a write error sticks to the bufio.Writer; flush reports it
}

// read queues one READ.
func (c *conn) read(key string, p pending) {
	b := append(c.line[:0], "READ "...)
	b = append(b, key...)
	b = append(b, '\n')
	c.line = b
	c.push(p)
	c.w.Write(b) // a write error sticks to the bufio.Writer; flush reports it
}

func (c *conn) flush() error {
	if c.w.Buffered() == 0 {
		return nil
	}
	return c.w.Flush()
}

// serve reads replies until the connection closes, handing each to fn with
// the request it answers. It returns the error that ended the stream; a
// reply with no request outstanding is a protocol error.
func (c *conn) serve(fn func(c *conn, p pending, reply string, at time.Time)) error {
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return err
		}
		at := time.Now()
		p, ok := c.pop()
		if !ok {
			return fmt.Errorf("replica %d: unsolicited reply %q", c.replica, strings.TrimSpace(string(line)))
		}
		fn(c, p, string(line[:len(line)-1]), at)
	}
}

// parseVal splits "VAL <group> <inst> <value>" into its value.
func parseVal(reply string) (string, bool) {
	if !strings.HasPrefix(reply, "VAL ") {
		return "", false
	}
	f := strings.SplitN(reply, " ", 4)
	if len(f) != 4 {
		return "", false
	}
	return f[3], true
}
