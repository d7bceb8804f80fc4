package internet

import (
	"fmt"
	"testing"
	"time"

	"siphoc/internal/sip"
)

func TestShardMapConsistentRebalance(t *testing.T) {
	m := NewShardMap("voicehoc.ch", []string{"voicehoc.ch", "s1.voicehoc.ch", "s2.voicehoc.ch", "s3.voicehoc.ch"})
	const users = 200
	before := make(map[string]int, users)
	perShard := make([]int, 4)
	for i := 0; i < users; i++ {
		aor := fmt.Sprintf("user%d@voicehoc.ch", i)
		o := m.OwnerIndex(aor)
		if o < 0 || o > 3 {
			t.Fatalf("owner(%s) = %d", aor, o)
		}
		before[aor] = o
		perShard[o]++
	}
	// Rendezvous hashing should spread the keyspace; no shard should be
	// starved or own nearly everything.
	for i, n := range perShard {
		if n < users/16 || n > users/2 {
			t.Fatalf("shard %d owns %d of %d AORs: %v", i, n, users, perShard)
		}
	}

	// Killing one shard must move only its own AORs.
	m.SetLive(2, false)
	for aor, was := range before {
		now := m.OwnerIndex(aor)
		if was == 2 {
			if now == 2 || now < 0 {
				t.Fatalf("%s still owned by dead shard (owner=%d)", aor, now)
			}
			continue
		}
		if now != was {
			t.Fatalf("%s moved %d -> %d though shard %d never died", aor, was, now, was)
		}
	}

	// Bringing it back restores the original assignment exactly.
	m.SetLive(2, true)
	for aor, was := range before {
		if now := m.OwnerIndex(aor); now != was {
			t.Fatalf("%s settled on %d after restart, originally %d", aor, now, was)
		}
	}
}

func TestShardMapFrontDoorFailover(t *testing.T) {
	m := NewShardMap("x.ch", []string{"x.ch", "s1.x.ch"})
	if fd, ok := m.FrontDoor(); !ok || fd.Node != "x.ch" {
		t.Fatalf("front door = %v %v", fd, ok)
	}
	m.SetLive(0, false)
	if fd, ok := m.FrontDoor(); !ok || fd.Node != "s1.x.ch" {
		t.Fatalf("front door after crash = %v %v", fd, ok)
	}
	m.SetLive(1, false)
	if _, ok := m.FrontDoor(); ok {
		t.Fatal("front door reported with the whole tier down")
	}
}

// shardedUser finds a user name whose AOR is owned by the wanted shard.
func shardedUser(t *testing.T, m *ShardMap, domain string, owner int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		user := fmt.Sprintf("u%d", i)
		if m.OwnerIndex(user+"@"+domain) == owner {
			return user
		}
	}
	t.Fatalf("no user hashes to shard %d", owner)
	return ""
}

func TestProviderPoolCrossShardRegisterAndInvite(t *testing.T) {
	inet := newInternet(t)
	pool, err := NewProviderPool(inet, PoolConfig{Domain: "voicehoc.ch", Shards: 3, BindingTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)

	// A user owned by a non-front-door shard, registered through the front
	// door: the REGISTER must be relayed to its owner.
	owner := 1
	user := shardedUser(t, pool.Map(), "voicehoc.ch", owner)
	aor := user + "@voicehoc.ch"
	pool.AddAccount(user)
	ua := uaStack(t, inet, "ua.net")
	ua.OnRequest(func(tx *sip.ServerTx) { _ = tx.RespondCode(sip.StatusOK, "") })
	resp, err := ua.Await(registerReq(ua, user, "voicehoc.ch", ua.Addr(), 60), pool.ProxyAddr())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != sip.StatusOK {
		t.Fatalf("register via front door = %d", resp.StatusCode)
	}
	if _, ok := pool.Shard(0).Binding(aor); ok {
		t.Fatal("front-door shard stored a binding it does not own")
	}
	if b, ok := pool.Shard(owner).Binding(aor); !ok || b.Node != "ua.net" {
		t.Fatalf("owner shard binding = %v %v", b, ok)
	}
	if b, ok := pool.Binding(aor); !ok || b.Node != "ua.net" {
		t.Fatalf("pool binding = %v %v", b, ok)
	}

	// An INVITE through a third shard is relayed owner-ward and reaches the
	// registered UA without any shard holding global state.
	caller := uaStack(t, inet, "caller.net")
	inv := sip.NewRequest(sip.MethodInvite, sip.MustParseURI("sip:"+aor))
	inv.From = &sip.NameAddr{URI: sip.MustParseURI("sip:caller@voicehoc.ch")}
	inv.From = inv.From.WithTag("t")
	inv.To = &sip.NameAddr{URI: sip.MustParseURI("sip:" + aor)}
	inv.CallID = caller.NewCallID()
	inv.CSeq = sip.CSeq{Seq: 1, Method: sip.MethodInvite}
	other := (owner + 1) % pool.Shards()
	resp, err = caller.Await(inv, pool.Map().Addr(other))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != sip.StatusOK {
		t.Fatalf("cross-shard invite = %d", resp.StatusCode)
	}
	if st := pool.Stats(); st.Total.ShardForwards < 2 {
		t.Fatalf("expected shard forwards for register+invite, stats = %+v", st)
	}
}

func TestProviderPoolCrashMovesOwnershipAndRestartRestoresIt(t *testing.T) {
	inet := newInternet(t)
	pool, err := NewProviderPool(inet, PoolConfig{Domain: "voicehoc.ch", Shards: 3, BindingTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)

	owner := 2
	user := shardedUser(t, pool.Map(), "voicehoc.ch", owner)
	aor := user + "@voicehoc.ch"
	pool.AddAccount(user)
	ua := uaStack(t, inet, "ua.net")
	register := func() int {
		t.Helper()
		resp, err := ua.Await(registerReq(ua, user, "voicehoc.ch", ua.Addr(), 60), pool.ProxyAddr())
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}
	if code := register(); code != sip.StatusOK {
		t.Fatalf("initial register = %d", code)
	}

	// Crash the owner: its bindings are gone and ownership moves to a
	// survivor; a fresh REGISTER re-homes the binding there.
	pool.CrashShard(owner)
	if _, ok := pool.Binding(aor); ok {
		t.Fatal("binding survived its shard's crash")
	}
	newOwner := pool.Map().OwnerIndex(aor)
	if newOwner == owner || newOwner < 0 {
		t.Fatalf("owner after crash = %d", newOwner)
	}
	if code := register(); code != sip.StatusOK {
		t.Fatalf("register after crash = %d", code)
	}
	if b, ok := pool.Shard(newOwner).Binding(aor); !ok || b.Node != "ua.net" {
		t.Fatalf("re-homed binding = %v %v", b, ok)
	}

	// Restart: ownership snaps back to the original shard (consistent
	// hashing), which starts empty until the next re-REGISTER.
	if err := pool.RestartShard(owner); err != nil {
		t.Fatal(err)
	}
	if got := pool.Map().OwnerIndex(aor); got != owner {
		t.Fatalf("owner after restart = %d, want %d", got, owner)
	}
	if _, ok := pool.Binding(aor); ok {
		t.Fatal("restarted shard reported a binding it never saw")
	}
	if code := register(); code != sip.StatusOK {
		t.Fatalf("register after restart = %d", code)
	}
	if b, ok := pool.Binding(aor); !ok || b.Node != "ua.net" {
		t.Fatalf("binding after restart = %v %v", b, ok)
	}
}
