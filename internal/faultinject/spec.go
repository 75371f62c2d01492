package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Spec-string parsing: the serve daemon (and any other long-running binary)
// exposes a test-only flag that arms injection points from a compact string,
// so black-box suites can fault a real process without sharing its address
// space. The format is
//
//	point[:key=value[,key=value...]][;point...]
//
// with the point names of Point.String and the Spec fields as keys:
// after, every, limit, rate, seed, delay (a time.ParseDuration string).
// A bare point name arms the fire-once default. Examples:
//
//	kernel-panic-load:every=1
//	queue-stall:delay=250ms,every=1;slow-handler:delay=50ms
//	nan-poke:rate=0.01,seed=7,limit=3

// PointByName resolves a point name as printed by Point.String.
func PointByName(name string) (Point, bool) {
	for i, n := range pointNames {
		if n == name {
			return Point(i), true
		}
	}
	return 0, false
}

// PointNames lists every injection point name, in declaration order.
func PointNames() []string {
	out := make([]string, len(pointNames))
	copy(out, pointNames[:])
	return out
}

// ParseAndArm parses a spec string and arms every point it names. On a parse
// error nothing is armed (the whole string is validated first) and the error
// names the valid points or keys.
func ParseAndArm(s string) error {
	type armReq struct {
		p    Point
		spec Spec
	}
	var reqs []armReq
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, kvs, _ := strings.Cut(part, ":")
		p, ok := PointByName(strings.TrimSpace(name))
		if !ok {
			return fmt.Errorf("faultinject: unknown point %q (valid: %s)",
				name, strings.Join(PointNames(), ", "))
		}
		spec, err := parseSpec(kvs)
		if err != nil {
			return fmt.Errorf("faultinject: point %s: %w", name, err)
		}
		reqs = append(reqs, armReq{p: p, spec: spec})
	}
	for _, r := range reqs {
		Arm(r.p, r.spec)
	}
	return nil
}

// parseSpec parses the comma-separated key=value list of one point.
func parseSpec(kvs string) (Spec, error) {
	var spec Spec
	if strings.TrimSpace(kvs) == "" {
		return spec, nil
	}
	for _, kv := range strings.Split(kvs, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return spec, fmt.Errorf("malformed option %q (want key=value)", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "after":
			spec.After, err = strconv.Atoi(val)
		case "every":
			spec.Every, err = strconv.Atoi(val)
		case "limit":
			spec.Limit, err = strconv.Atoi(val)
		case "rate":
			spec.Rate, err = strconv.ParseFloat(val, 64)
		case "seed":
			spec.Seed, err = strconv.ParseUint(val, 10, 64)
		case "delay":
			spec.Delay, err = time.ParseDuration(val)
		default:
			return spec, fmt.Errorf("unknown option %q (valid: after, every, limit, rate, seed, delay)", key)
		}
		// Fire gives no meaning to a count or delay below zero or to a
		// probability outside [0,1]; the negated form also rejects NaN.
		if err == nil && (spec.After < 0 || spec.Every < 0 || spec.Limit < 0 || spec.Delay < 0) {
			err = fmt.Errorf("%s is negative", val)
		}
		if err == nil && !(spec.Rate >= 0 && spec.Rate <= 1) {
			err = fmt.Errorf("%s is not a probability in [0,1]", val)
		}
		if err != nil {
			return spec, fmt.Errorf("option %s: %v", key, err)
		}
	}
	return spec, nil
}
