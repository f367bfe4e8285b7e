/**
 * @file
 * InlineFunction: a move-only callable wrapper with a fixed-capacity
 * inline buffer, for the simulator's hot callback paths.
 *
 * `std::function` heap-allocates any capture larger than its small
 * libstdc++ SSO buffer (~16 bytes), which puts malloc/free on the
 * critical path of every simulated memory request (GPU issue lambdas
 * run ~112 bytes of capture). InlineFunction always stores the
 * callable inside the wrapper itself, in `Capacity` bytes; it never
 * allocates.
 *
 * Capacity contract, checked at compile time: a callable that is
 * larger than `Capacity`, more aligned than `std::max_align_t`, or
 * not nothrow-move-constructible does not compile. The capacities used
 * by the simulator are documented where the aliases are declared
 * (EventQueue::LambdaFn and Packet::onResponse) and are picked from
 * the *measured* worst-case hot capture; growing a capture past them
 * is a build error, not a silent heap allocation.
 */

#ifndef BCTRL_SIM_INLINE_FUNCTION_HH
#define BCTRL_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace bctrl {

template <typename Signature, std::size_t Capacity>
class InlineFunction; // undefined; only the R(Args...) partial below

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineFunction(F &&f)
    {
        construct(std::forward<F>(f));
    }

    InlineFunction(InlineFunction &&other) noexcept { moveFrom(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            destroy();
            moveFrom(other);
        }
        return *this;
    }

    InlineFunction &
    operator=(std::nullptr_t) noexcept
    {
        destroy();
        return *this;
    }

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineFunction &
    operator=(F &&f)
    {
        destroy();
        construct(std::forward<F>(f));
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { destroy(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    R
    operator()(Args... args)
    {
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

  private:
    struct Ops {
        R (*invoke)(void *, Args &&...);
        void (*relocate)(void *dst, void *src); // move-construct + destroy
        void (*destroy)(void *);
    };

    template <typename F>
    struct InlineOps {
        static R
        invoke(void *p, Args &&...args)
        {
            return (*static_cast<F *>(p))(std::forward<Args>(args)...);
        }
        static void
        relocate(void *dst, void *src)
        {
            F *s = static_cast<F *>(src);
            ::new (dst) F(std::move(*s));
            s->~F();
        }
        static void destroy(void *p) { static_cast<F *>(p)->~F(); }
    };

    template <typename F>
    static constexpr Ops kInlineOps{&InlineOps<F>::invoke,
                                    &InlineOps<F>::relocate,
                                    &InlineOps<F>::destroy};

    template <typename F>
    void
    construct(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= Capacity,
                      "InlineFunction: callable exceeds the inline "
                      "capacity; shrink the capture or raise Capacity");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "InlineFunction: callable is over-aligned");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "InlineFunction: callable must be nothrow-move");
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
        ops_ = &kInlineOps<Fn>;
    }

    void
    moveFrom(InlineFunction &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    void
    destroy() noexcept
    {
        if (ops_ != nullptr) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[Capacity];
    const Ops *ops_ = nullptr;
};

template <typename Sig, std::size_t Cap>
bool
operator==(const InlineFunction<Sig, Cap> &f, std::nullptr_t) noexcept
{
    return !static_cast<bool>(f);
}

template <typename Sig, std::size_t Cap>
bool
operator!=(const InlineFunction<Sig, Cap> &f, std::nullptr_t) noexcept
{
    return static_cast<bool>(f);
}

} // namespace bctrl

#endif // BCTRL_SIM_INLINE_FUNCTION_HH
