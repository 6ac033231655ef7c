// Command biscatter-tag runs a BiScatter backscatter node as a client of a
// biscatter-radar gateway. The tag holds a supervised session (handshake,
// heartbeats, ARQ retransmission with deterministic backoff) and submits its
// uplink bits each round, receiving the round outcome — decoded downlink
// payload, its own localization fix and demodulated uplink bits — over the
// wire. If the gateway evicts the session (e.g. after a network partition
// outlasts the liveness deadline) the client re-handshakes transparently and
// resumes at the gateway's current round:
//
//	biscatter-tag -connect 127.0.0.1:9100 -id 1 -rounds 5
//
// The tag heartbeats at the interval the gateway advertises. The -net-*
// flags inject deterministic transport faults for chaos testing.
// The radar owns the exchange pipeline, so its -trace-out holds every
// round's span tree, this tag's included.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"biscatter/internal/netio"
)

func main() {
	sf := netio.RegisterServiceFlags(flag.CommandLine)
	faults := netio.RegisterNetFaultFlags(flag.CommandLine)
	id := flag.Int("id", 1, "tag ID")
	seed := flag.Int64("seed", 7, "retransmission backoff jitter seed")
	uplink := flag.String("uplink", "telemetry", "uplink message (its bytes become uplink bits)")
	rounds := flag.Int("rounds", 0, "exit after this many rounds (0 = run forever)")
	flag.Parse()

	if sf.Connect == "" {
		fmt.Fprintln(flag.CommandLine.Output(), "-connect is required: the biscatter-radar gateway address, e.g. 127.0.0.1:9100")
		flag.Usage()
		os.Exit(2)
	}
	if err := runClient(sf, faults, uint8(*id), *seed, *uplink, *rounds); err != nil {
		log.Fatal(err)
	}
}

// runClient joins a gateway fleet: handshake, then one SubmitRound per
// round until the bound is reached (or forever when rounds == 0).
func runClient(sf *netio.ServiceFlags, faults *netio.NetFaultProfile, id uint8, seed int64, uplink string, rounds int) error {
	listen := sf.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	conn, err := netio.ListenTransport(sf.Transport, listen, netio.WithNetFaults(faults))
	if err != nil {
		return err
	}
	defer conn.Close()
	c, err := netio.Dial(conn, sf.Connect, netio.ClientConfig{
		TagID: id,
		Seed:  seed,
		Logf:  log.Printf,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	log.Printf("tag %d: session %d with gateway %s, starting at round %d",
		id, c.SessionID(), sf.Connect, c.Round())

	uplinkBits := bytesToBits([]byte(uplink))
	ctx := context.Background()
	for done := 0; rounds == 0 || done < rounds; done++ {
		res, err := c.SubmitRound(ctx, uplinkBits)
		if err != nil {
			return fmt.Errorf("round %d: %w", c.Round(), err)
		}
		switch res.Status {
		case netio.RoundOK:
			log.Printf("round %d: payload %q, localized at %.3f m (SNR %.1f dB), %d uplink bits echoed",
				res.Round, res.Outcome.DownlinkPayload, res.Outcome.DetectionRange,
				res.Outcome.DetectionSNRdB, len(res.Outcome.UplinkBits))
		case netio.RoundSkipped:
			log.Printf("round %d: skipped (submission missed the round barrier)", res.Round)
		default:
			log.Printf("round %d: error %q", res.Round, res.Outcome.Err)
		}
	}
	return nil
}

func bytesToBits(data []byte) []bool {
	out := make([]bool, 0, len(data)*8)
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			out = append(out, b&(1<<uint(i)) != 0)
		}
	}
	if len(out) > 8 {
		out = out[:8] // keep the demo frame length manageable
	}
	return out
}
