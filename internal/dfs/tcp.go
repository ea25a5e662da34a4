package dfs

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// The TCP transport carries one gob-encoded request/response pair per
// round trip over a persistent connection. It exists so the DFS substrate
// is demonstrably a distributed system (cmd/dfs runs namenode and
// datanodes as separate processes) rather than a map behind interfaces.

// rpcRequest is the union of all request payloads; Method selects the
// operation. A single fat struct keeps the gob stream self-describing
// without per-method type registration.
type rpcRequest struct {
	Method    string
	Path      string
	Preferred string
	Prefix    string
	Size      int64
	DN        DataNodeInfo
	Block     BlockID
	Data      []byte
	Pipeline  []DataNodeInfo
	Blocks    []BlockID
}

// rpcResponse is the union of all response payloads. Err carries the
// flattened error message (empty means success); ErrCode carries the
// sentinel's wire code so the client can rehydrate error identity for
// errors.Is checks.
type rpcResponse struct {
	Err     string
	ErrCode uint8
	Stale   []BlockLocation
	Loc     BlockLocation
	Info    FileInfo
	Names   []string
	Data    []byte
	Blocks  []BlockID
}

// setErr flattens err into the response, preserving sentinel identity via
// the wire code.
func (r *rpcResponse) setErr(err error) {
	if err == nil {
		return
	}
	r.Err = err.Error()
	r.ErrCode = errToCode(err)
}

// asError rehydrates the response's error, or returns nil on success.
func (r *rpcResponse) asError() error {
	if r.Err == "" {
		return nil
	}
	if sentinel := codeToErr(r.ErrCode); sentinel != nil {
		return &rpcError{msg: r.Err, sentinel: sentinel}
	}
	return errors.New(r.Err)
}

// Serve runs an RPC loop for either node role until the listener closes.
// Pass exactly one non-nil API. Closing the listener is a clean shutdown:
// Serve closes every open connection, waits for the per-connection
// goroutines to drain, and returns nil. Any other accept error is
// returned.
func Serve(l net.Listener, nn NameNodeAPI, dn DataNodeAPI) error {
	if (nn == nil) == (dn == nil) {
		return errors.New("dfs: Serve requires exactly one of namenode or datanode")
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns = make(map[net.Conn]struct{})
	)
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			// Shut down every open connection so the handler goroutines
			// unblock from their pending reads instead of leaking. Snapshot
			// under the lock, close outside it: a Close that blocks must
			// not stall the handlers' own delete(conns, conn) bookkeeping.
			mu.Lock()
			open := make([]net.Conn, 0, len(conns))
			for c := range conns {
				open = append(open, c)
			}
			mu.Unlock()
			for _, c := range open {
				c.Close()
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				conn.Close()
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
			}()
			serveConn(conn, nn, dn)
		}()
	}
}

func serveConn(conn net.Conn, nn NameNodeAPI, dn DataNodeAPI) {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req rpcRequest
		if err := dec.Decode(&req); err != nil {
			return // EOF or broken peer: drop the connection
		}
		var resp rpcResponse
		if nn != nil {
			resp = dispatchNameNode(nn, &req)
		} else {
			resp = dispatchDataNode(dn, &req)
		}
		if err := enc.Encode(&resp); err != nil {
			return
		}
	}
}

func dispatchNameNode(nn NameNodeAPI, req *rpcRequest) rpcResponse {
	var resp rpcResponse
	switch req.Method {
	case "Register":
		resp.setErr(nn.Register(req.DN))
	case "Heartbeat":
		resp.setErr(nn.Heartbeat(req.DN))
	case "Create":
		stale, err := nn.Create(req.Path)
		resp.Stale = stale
		resp.setErr(err)
	case "AddBlock":
		loc, err := nn.AddBlock(req.Path, req.Preferred)
		resp.Loc = loc
		resp.setErr(err)
	case "ReportBlock":
		resp.setErr(nn.ReportBlock(req.Path, req.Block, req.Pipeline))
	case "Complete":
		resp.setErr(nn.Complete(req.Path, req.Size))
	case "Stat":
		info, err := nn.Stat(req.Path)
		resp.Info = info
		resp.setErr(err)
	case "Delete":
		info, err := nn.Delete(req.Path)
		resp.Info = info
		resp.setErr(err)
	case "List":
		names, err := nn.List(req.Prefix)
		resp.Names = names
		resp.setErr(err)
	case "ReportBadReplica":
		resp.setErr(nn.ReportBadReplica(req.Block, req.DN))
	case "BlockReport":
		stale, err := nn.BlockReport(req.DN, req.Blocks)
		resp.Blocks = stale
		resp.setErr(err)
	default:
		resp.Err = fmt.Sprintf("dfs: unknown namenode method %q", req.Method)
	}
	return resp
}

func dispatchDataNode(dn DataNodeAPI, req *rpcRequest) rpcResponse {
	var resp rpcResponse
	switch req.Method {
	case "WriteBlock":
		resp.setErr(dn.WriteBlock(req.Block, req.Data, req.Pipeline))
	case "ReadBlock":
		data, err := dn.ReadBlock(req.Block)
		resp.Data = data
		resp.setErr(err)
	case "DeleteBlock":
		resp.setErr(dn.DeleteBlock(req.Block))
	default:
		resp.Err = fmt.Sprintf("dfs: unknown datanode method %q", req.Method)
	}
	return resp
}

// tcpConn is one pooled connection with its codecs.
type tcpConn struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// tcpPeer issues calls to one remote address, serializing requests over a
// lazily dialed, reused connection and redialing after failures. Each RPC
// runs under a read/write deadline so a hung peer fails the call instead
// of wedging the client forever.
type tcpPeer struct {
	addr    string
	timeout time.Duration
	mu      sync.Mutex
	c       *tcpConn
}

// call holds p.mu for the whole exchange: the gob encoder/decoder pair
// is stateful and the connection carries one request at a time, so the
// mutex IS the request pipeline. The I/O itself lives in callLocked,
// which requires the caller to hold p.mu.
func (p *tcpPeer) call(req *rpcRequest) (*rpcResponse, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.callLocked(req)
}

func (p *tcpPeer) callLocked(req *rpcRequest) (*rpcResponse, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if p.c == nil {
			conn, err := net.DialTimeout("tcp", p.addr, p.timeout)
			if err != nil {
				return nil, fmt.Errorf("dfs: dial %s: %w", p.addr, err)
			}
			p.c = &tcpConn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
		}
		if p.timeout > 0 {
			p.c.conn.SetDeadline(time.Now().Add(p.timeout))
		}
		var resp rpcResponse
		if err := p.c.enc.Encode(req); err == nil {
			if err = p.c.dec.Decode(&resp); err == nil {
				if p.timeout > 0 {
					p.c.conn.SetDeadline(time.Time{})
				}
				return &resp, resp.asError()
			}
			lastErr = err
		} else {
			lastErr = err
		}
		// Stale, broken, or timed-out connection: drop it and retry once
		// with a fresh dial.
		p.c.conn.Close()
		p.c = nil
	}
	return nil, fmt.Errorf("dfs: rpc to %s: %w", p.addr, lastErr)
}

func (p *tcpPeer) close() {
	// Detach under the lock, close outside it: Close on a connection with
	// an RPC in flight must not deadlock against call's critical section.
	p.mu.Lock()
	c := p.c
	p.c = nil
	p.mu.Unlock()
	if c != nil {
		c.conn.Close()
	}
}

// DefaultRPCTimeout bounds each RPC round trip (dial, write, read). Large
// enough for an 8 MiB block transfer on a slow link, small enough that a
// dead peer is detected promptly.
const DefaultRPCTimeout = 30 * time.Second

// TCPTransport resolves NameNode and DataNode stubs over TCP.
type TCPTransport struct {
	namenodeAddr string
	timeout      time.Duration
	mu           sync.Mutex
	peers        map[string]*tcpPeer
}

// NewTCPTransport returns a transport whose NameNode lives at
// namenodeAddr.
func NewTCPTransport(namenodeAddr string) *TCPTransport {
	return &TCPTransport{
		namenodeAddr: namenodeAddr,
		timeout:      DefaultRPCTimeout,
		peers:        make(map[string]*tcpPeer),
	}
}

var _ Transport = (*TCPTransport)(nil)

func (t *TCPTransport) peer(addr string) *tcpPeer {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.peers[addr]
	if !ok {
		p = &tcpPeer{addr: addr, timeout: t.timeout}
		t.peers[addr] = p
	}
	return p
}

// NameNode implements Transport.
func (t *TCPTransport) NameNode() (NameNodeAPI, error) {
	return &tcpNameNode{peer: t.peer(t.namenodeAddr)}, nil
}

// DataNode implements Transport.
func (t *TCPTransport) DataNode(info DataNodeInfo) (DataNodeAPI, error) {
	if info.Addr == "" {
		return nil, fmt.Errorf("dfs: datanode %q has no address", info.ID)
	}
	return &tcpDataNode{peer: t.peer(info.Addr)}, nil
}

// Close drops all pooled connections.
func (t *TCPTransport) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.peers {
		p.close()
	}
	t.peers = make(map[string]*tcpPeer)
}

type tcpNameNode struct{ peer *tcpPeer }

var _ NameNodeAPI = (*tcpNameNode)(nil)

func (n *tcpNameNode) Register(dn DataNodeInfo) error {
	_, err := n.peer.call(&rpcRequest{Method: "Register", DN: dn})
	return err
}

func (n *tcpNameNode) Heartbeat(dn DataNodeInfo) error {
	_, err := n.peer.call(&rpcRequest{Method: "Heartbeat", DN: dn})
	return err
}

func (n *tcpNameNode) Create(path string) ([]BlockLocation, error) {
	resp, err := n.peer.call(&rpcRequest{Method: "Create", Path: path})
	if err != nil {
		return nil, err
	}
	return resp.Stale, nil
}

func (n *tcpNameNode) AddBlock(path, preferred string) (BlockLocation, error) {
	resp, err := n.peer.call(&rpcRequest{Method: "AddBlock", Path: path, Preferred: preferred})
	if err != nil {
		return BlockLocation{}, err
	}
	return resp.Loc, nil
}

func (n *tcpNameNode) ReportBlock(path string, id BlockID, replicas []DataNodeInfo) error {
	_, err := n.peer.call(&rpcRequest{Method: "ReportBlock", Path: path, Block: id, Pipeline: replicas})
	return err
}

func (n *tcpNameNode) Complete(path string, size int64) error {
	_, err := n.peer.call(&rpcRequest{Method: "Complete", Path: path, Size: size})
	return err
}

func (n *tcpNameNode) Stat(path string) (FileInfo, error) {
	resp, err := n.peer.call(&rpcRequest{Method: "Stat", Path: path})
	if err != nil {
		return FileInfo{}, err
	}
	return resp.Info, nil
}

func (n *tcpNameNode) Delete(path string) (FileInfo, error) {
	resp, err := n.peer.call(&rpcRequest{Method: "Delete", Path: path})
	if err != nil {
		return FileInfo{}, err
	}
	return resp.Info, nil
}

func (n *tcpNameNode) List(prefix string) ([]string, error) {
	resp, err := n.peer.call(&rpcRequest{Method: "List", Prefix: prefix})
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

func (n *tcpNameNode) ReportBadReplica(id BlockID, bad DataNodeInfo) error {
	_, err := n.peer.call(&rpcRequest{Method: "ReportBadReplica", Block: id, DN: bad})
	return err
}

func (n *tcpNameNode) BlockReport(dn DataNodeInfo, blocks []BlockID) ([]BlockID, error) {
	resp, err := n.peer.call(&rpcRequest{Method: "BlockReport", DN: dn, Blocks: blocks})
	if err != nil {
		return nil, err
	}
	return resp.Blocks, nil
}

type tcpDataNode struct{ peer *tcpPeer }

var _ DataNodeAPI = (*tcpDataNode)(nil)

func (d *tcpDataNode) WriteBlock(id BlockID, data []byte, pipeline []DataNodeInfo) error {
	_, err := d.peer.call(&rpcRequest{Method: "WriteBlock", Block: id, Data: data, Pipeline: pipeline})
	return err
}

func (d *tcpDataNode) ReadBlock(id BlockID) ([]byte, error) {
	resp, err := d.peer.call(&rpcRequest{Method: "ReadBlock", Block: id})
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

func (d *tcpDataNode) DeleteBlock(id BlockID) error {
	_, err := d.peer.call(&rpcRequest{Method: "DeleteBlock", Block: id})
	return err
}
