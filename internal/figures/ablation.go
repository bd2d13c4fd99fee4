package figures

import (
	"fmt"
	"time"

	"dproc/internal/kecho"
	"dproc/internal/registry"
)

// FigureDiffThreshold is the ablation of the paper's central overhead
// lever: the fraction of polls in which node0 still publishes as the
// differential filter's threshold rises through the paper's 15 %.
func FigureDiffThreshold(nodes, iters int) (*Figure, error) {
	if nodes <= 0 {
		nodes = 8
	}
	if iters <= 0 {
		iters = 30
	}
	f := &Figure{
		ID:     "diff-threshold",
		Title:  "Differential filter threshold sweep (polls that publish vs. threshold)",
		XLabel: "threshold (%)",
		YLabel: "fraction of polls that publish",
		Notes: []string{
			fmt.Sprintf("node0 of a %d-node cluster over %d polls; every simulated metric jitters by up to 2%%", nodes, iters),
		},
	}
	series := Series{Label: Differential.String()}
	for _, pct := range []float64{1, 5, 15, 30} {
		frac, err := sendFraction(nodes, differentialAt(pct), iters)
		if err != nil {
			return nil, err
		}
		series.Points = append(series.Points, Point{X: pct, Y: frac})
	}
	f.Series = append(f.Series, series)
	return f, nil
}

// FigureP2PvsCentral is the ablation of the paper's argument against a
// central concentrator (Supermon): the events one node handles per round
// when every node reports once, under dproc's peer-to-peer submission and
// under a hub that receives every report and forwards it to the other
// members, both on the real kecho transport. The p2p publisher sends n−1
// events; the hub receives n−1 and forwards (n−1)(n−2). The counts are read
// from channel Stats once every member has received its share: counted, not
// timed, so they are exact on any machine.
func FigureP2PvsCentral(maxNodes, rounds int) (*Figure, error) {
	if maxNodes <= 0 {
		maxNodes = 8
	}
	if rounds <= 0 {
		rounds = 10
	}
	f := &Figure{
		ID:     "p2p-central",
		Title:  "Peer-to-peer vs. central concentrator (events one node handles per round)",
		XLabel: "nodes",
		YLabel: "events handled per round",
		Notes:  []string{fmt.Sprintf("counted from kecho channel Stats on loopback TCP over %d rounds", rounds)},
	}
	p2p := Series{Label: "p2p publisher"}
	hub := Series{Label: "central hub"}
	for n := 2; n <= maxNodes; n++ {
		pub, conc, err := countRound(n, rounds)
		if err != nil {
			return nil, err
		}
		p2p.Points = append(p2p.Points, Point{X: float64(n), Y: pub})
		hub.Points = append(hub.Points, Point{X: float64(n), Y: conc})
	}
	f.Series = append(f.Series, p2p, hub)
	return f, nil
}

// countRound runs rounds reporting rounds on an n-member mesh, first peer to
// peer from member 0, then through member 0 as the concentrator, and returns
// the events member 0 handled per round in each.
func countRound(n, rounds int) (p2p, hub float64, err error) {
	reg, err := registry.NewServer("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer reg.Close()
	chans := make([]*kecho.Channel, n)
	for i := range chans {
		cli := registry.NewClient(reg.Addr())
		defer cli.Close()
		ch, err := kecho.Join(cli, "p2p-central", fmt.Sprintf("m%d", i), nil)
		if err != nil {
			return 0, 0, err
		}
		defer ch.Close()
		chans[i] = ch
	}
	for _, ch := range chans {
		if !ch.WaitForPeers(n-1, 5*time.Second) {
			return 0, 0, fmt.Errorf("figures: %d-member mesh did not form", n)
		}
	}
	center, spokes := chans[0], chans[1:]
	payload := make([]byte, 100)

	for r := 0; r < rounds; r++ {
		if _, err := center.Publish(payload, kecho.PublishOpts{}); err != nil {
			return 0, 0, err
		}
	}
	if err := waitRecv(spokes, uint64(rounds)); err != nil {
		return 0, 0, err
	}
	before := center.Stats()
	p2p = float64(before.EventsSent) / float64(rounds)

	// The hub forwards every report to the spokes other than its sender.
	var fwdErr error
	center.Subscribe(func(ev kecho.Event) {
		for _, s := range spokes {
			if s.MemberID() != ev.From && fwdErr == nil {
				fwdErr = center.SubmitTo(s.MemberID(), ev.Payload)
			}
		}
	})
	for r := 0; r < rounds; r++ {
		for _, s := range spokes {
			if err := s.SubmitTo(center.MemberID(), payload); err != nil {
				return 0, 0, err
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for handled := 0; handled < len(spokes); {
			if time.Now().After(deadline) {
				return 0, 0, fmt.Errorf("figures: hub received %d of round %d's %d reports", handled, r, len(spokes))
			}
			k := center.Poll()
			if k == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			handled += k
		}
		if fwdErr != nil {
			return 0, 0, fwdErr
		}
	}
	// Each spoke now holds the p2p round's event plus n−2 forwards per round.
	if err := waitRecv(spokes, uint64(rounds*(n-1))); err != nil {
		return 0, 0, err
	}
	after := center.Stats()
	hub = float64(after.EventsRecv-before.EventsRecv+after.EventsSent-before.EventsSent) / float64(rounds)
	return p2p, hub, nil
}

// waitRecv waits until every channel has received want events.
func waitRecv(chans []*kecho.Channel, want uint64) error {
	deadline := time.Now().Add(5 * time.Second)
	for _, ch := range chans {
		for ch.Stats().EventsRecv < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("figures: %s received %d of %d events", ch.MemberID(), ch.Stats().EventsRecv, want)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}
