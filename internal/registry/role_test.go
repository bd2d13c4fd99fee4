package registry

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dproc/internal/wire"
)

// TestMemberListRoundTrip pins the ext-block encoding: roles survive the
// codec and the empty role stays the zero value.
func TestMemberListRoundTrip(t *testing.T) {
	in := []Member{
		{ID: "a", Addr: "127.0.0.1:1", Role: "relay"},
		{ID: "b", Addr: "127.0.0.1:2"},
		{ID: "c", Addr: "127.0.0.1:3", Role: "relay"},
	}
	out, err := decodeMembers(encodeMembers(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d members, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("member %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

// TestMemberListVersionTolerance is the satellite's round-trip +
// foreign-field table: hand-crafted announcements from hypothetical future
// and past revisions must parse (unknown ext fields skipped), while frames
// that lie about their lengths must be rejected.
func TestMemberListVersionTolerance(t *testing.T) {
	// futureMember encodes one member whose ext block carries Role plus
	// trailing bytes this revision does not understand.
	futureMember := func(e *wire.Encoder, id, addr, role string, foreign []byte) {
		e.String(id)
		e.String(addr)
		e.Uint32(uint32(4 + len(role) + len(foreign)))
		e.String(role)
		for _, b := range foreign {
			e.Uint8(b)
		}
	}
	cases := []struct {
		name    string
		encode  func(e *wire.Encoder)
		want    []Member
		wantErr string
	}{
		{
			name: "future announcement with foreign ext field",
			encode: func(e *wire.Encoder) {
				e.Uint32(2)
				futureMember(e, "a", "127.0.0.1:1", "relay", []byte{0xde, 0xad, 0xbe, 0xef})
				futureMember(e, "b", "127.0.0.1:2", "", []byte{0x01})
			},
			want: []Member{
				{ID: "a", Addr: "127.0.0.1:1", Role: "relay"},
				{ID: "b", Addr: "127.0.0.1:2"},
			},
		},
		{
			name: "empty ext block from a role-less future revision",
			encode: func(e *wire.Encoder) {
				// A hypothetical revision that dropped Role would still emit
				// the block frame; an empty block reads as the zero role.
				// (Role's length prefix missing entirely is a framing error,
				// covered below — this case has the full prefix, empty value.)
				e.Uint32(1)
				futureMember(e, "a", "127.0.0.1:1", "", nil)
			},
			want: []Member{{ID: "a", Addr: "127.0.0.1:1"}},
		},
		{
			name: "role overruns its ext block",
			encode: func(e *wire.Encoder) {
				e.Uint32(1)
				e.String("a")
				e.String("127.0.0.1:1")
				e.Uint32(4)  // block holds only the length prefix...
				e.Uint32(40) // ...which claims 40 role bytes that are not there
			},
			wantErr: "member extension",
		},
		{
			name: "implausible member count",
			encode: func(e *wire.Encoder) {
				e.Uint32(1 << 30)
				e.String("a")
			},
			wantErr: "implausible member count",
		},
		{
			name: "trailing bytes after last member",
			encode: func(e *wire.Encoder) {
				e.Uint32(1)
				futureMember(e, "a", "127.0.0.1:1", "relay", nil)
				e.Uint8(0x7f)
			},
			wantErr: "trailing",
		},
		{
			name: "truncated member",
			encode: func(e *wire.Encoder) {
				e.Uint32(2)
				futureMember(e, "a", "127.0.0.1:1", "", nil)
				e.String("b") // second member cut off after its ID
			},
			wantErr: "field extends past end",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := wire.NewEncoder(128)
			c.encode(e)
			got, err := decodeMembers(e.Bytes())
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(c.want) {
				t.Fatalf("decoded %d members, want %d", len(got), len(c.want))
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("member %d: got %+v, want %+v", i, got[i], c.want[i])
				}
			}
		})
	}
}

// TestJoinRequestRoleOptional pins request-side backward compatibility: the
// original three-string join and heartbeat requests (clients predating the
// role field) still register, and role-bearing requests store the role.
func TestJoinRequestRoleOptional(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Old client: exactly three strings, no role field.
	e := wire.NewEncoder(64)
	e.String("ch")
	e.String("old")
	e.String("127.0.0.1:9")
	if _, err := s.handle(msgJoin, e.Bytes()); err != nil {
		t.Fatalf("three-field join rejected: %v", err)
	}

	// New client: four strings.
	cli := NewClient(s.Addr())
	defer cli.Close()
	peers, err := cli.JoinAs("ch", "new", "127.0.0.1:10", "relay")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 1 || peers[0].ID != "old" || peers[0].Role != "" {
		t.Fatalf("peers = %+v, want the role-less old member", peers)
	}

	members, err := cli.Lookup("ch")
	if err != nil {
		t.Fatal(err)
	}
	roles := map[string]string{}
	for _, m := range members {
		roles[m.ID] = m.Role
	}
	if roles["old"] != "" || roles["new"] != "relay" {
		t.Fatalf("roles = %v, want old=\"\" new=relay", roles)
	}

	// A heartbeat keep-alive must not erase the advertised role.
	if _, err := cli.HeartbeatAs("ch", "new", "127.0.0.1:10", "relay"); err != nil {
		t.Fatal(err)
	}
	members, err = cli.Lookup("ch")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		if m.ID == "new" && m.Role != "relay" {
			t.Fatalf("heartbeat erased role: %+v", m)
		}
	}
}

// FuzzDecodeMembers feeds the member-list decoder arbitrary bytes — what a
// registry, or anything answering on its port, may send. It must never
// panic, and a list that decodes must come back equal, role extension
// included, through encodeMembers and a second decode. Equal, not
// byte-identical: the decoder skips ext bytes a newer revision added. The
// seeds are real rosters — empty, 1 and 8 members, with and without roles —
// and one with a foreign ext field.
func FuzzDecodeMembers(f *testing.F) {
	roster := func(n int, role string) []Member {
		ms := make([]Member, n)
		for i := range ms {
			ms[i] = Member{ID: fmt.Sprintf("node%d", i), Addr: fmt.Sprintf("127.0.0.1:%d", 7500+i)}
			if i%2 == 0 {
				ms[i].Role = role
			}
		}
		return ms
	}
	f.Add(encodeMembers(nil))
	for _, role := range []string{"", "relay"} {
		f.Add(encodeMembers(roster(1, role)))
		f.Add(encodeMembers(roster(8, role)))
	}
	foreign := wire.NewEncoder(64)
	foreign.Uint32(1)
	foreign.String("a")
	foreign.String("127.0.0.1:1")
	foreign.Uint32(4 + 5 + 2)
	foreign.String("relay")
	foreign.Uint8(0xbe)
	foreign.Uint8(0xef)
	f.Add(foreign.Bytes())
	f.Fuzz(func(t *testing.T, payload []byte) {
		members, err := decodeMembers(payload)
		if err != nil {
			return
		}
		again, err := decodeMembers(encodeMembers(members))
		if err != nil {
			t.Fatalf("re-encoded roster of %d members does not decode: %v", len(members), err)
		}
		if !slices.Equal(again, members) {
			t.Fatalf("roster changed through encodeMembers:\n got %+v\nwant %+v", again, members)
		}
	})
}
