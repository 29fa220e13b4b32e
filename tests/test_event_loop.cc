/**
 * @file
 * Unit tests of the shared event-loop pieces that need no sockets:
 * the ordered response window's index arithmetic.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "service/event_loop.hh"

using namespace fracdram::service;

namespace
{

struct TestSlot
{
    int value = 0;
    bool ready = false;
};

std::vector<int>
drain(OrderedWindow<TestSlot> &w)
{
    std::vector<int> out;
    w.popReady([&out](TestSlot &s) { out.push_back(s.value); });
    return out;
}

} // namespace

/**
 * A connection's u32 frame index wraps after 2^32 frames. Slots
 * opened on both sides of the wrap and completed out of order must
 * all land, and leave strictly in request order.
 */
TEST(OrderedWindow, OutOfOrderCompletionsAcrossTheWrap)
{
    OrderedWindow<TestSlot> w(0xFFFFFFF0u);
    std::vector<std::uint32_t> idx;
    for (int i = 0; i < 32; ++i) {
        idx.push_back(w.next());
        w.push();
    }
    EXPECT_EQ(idx.front(), 0xFFFFFFF0u);
    EXPECT_EQ(idx[16], 0u); // the 17th frame wrapped
    EXPECT_EQ(w.next(), 16u);

    // Complete back to front: nothing may leave until slot 0 does.
    for (int i = 31; i >= 1; --i) {
        TestSlot *s = w.at(idx[static_cast<std::size_t>(i)]);
        ASSERT_NE(s, nullptr) << "slot " << i << " dropped";
        s->value = i;
        s->ready = true;
        EXPECT_TRUE(drain(w).empty());
    }
    TestSlot *first = w.at(idx[0]);
    ASSERT_NE(first, nullptr);
    first->ready = true;
    const std::vector<int> out = drain(w);
    ASSERT_EQ(out.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(w.base(), 16u);
}

/** Indices already retired or not yet opened are stale: no slot. */
TEST(OrderedWindow, StaleIndicesFindNoSlot)
{
    OrderedWindow<TestSlot> w(0xFFFFFFFEu);
    w.push();
    w.push();
    w.push(); // indices 0xFFFFFFFE, 0xFFFFFFFF, 0
    w.at(0xFFFFFFFEu)->ready = true;
    EXPECT_EQ(drain(w).size(), 1u);
    EXPECT_EQ(w.at(0xFFFFFFFEu), nullptr); // retired
    EXPECT_NE(w.at(0xFFFFFFFFu), nullptr);
    EXPECT_NE(w.at(0u), nullptr);
    EXPECT_EQ(w.at(1u), nullptr); // not opened yet
}

/** A frame answered while the window is empty never takes a slot
 *  but still advances both ends, keeping later indices aligned. */
TEST(OrderedWindow, SkipKeepsIndicesAligned)
{
    OrderedWindow<TestSlot> w(0xFFFFFFFFu);
    w.skip();
    EXPECT_EQ(w.base(), 0u);
    EXPECT_EQ(w.next(), 0u);
    const std::uint32_t i = w.next();
    w.push();
    EXPECT_EQ(i, 0u);
    EXPECT_NE(w.at(0u), nullptr);
    EXPECT_EQ(w.at(1u), nullptr);
}
